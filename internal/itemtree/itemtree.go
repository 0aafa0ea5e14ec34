// Package itemtree is the shared flat-arena core of MacroBase's two
// prefix trees (internal/cps, internal/fptree): a contiguous node slab
// addressed by int32 indexes in first-child/next-sibling layout, with
// per-rank header chains for node-link traversals and one hashed child
// index keyed by (parent, item) for O(1) child lookup at every depth.
// The packages on top own item semantics (what a token means, how
// ranks are assigned, when headers accumulate); this package owns the
// structural invariants, so a layout fix lands in exactly one place.
//
// The child index is derived state, used only by InsertSorted: it is
// rebuilt from the slab when it grows or after CloneInto invalidates
// it, and emptied (keeping capacity) by Reset. Sibling lists are not
// short in practice — a frequent item near the root heads hundreds of
// children — so a first-child/next-sibling scan per level made inserts
// linear in fan-out. The slab itself (append order, First/Next
// prepends, header chains, node indexes) is exactly what the scan
// produced.
//
// An Arena is not safe for concurrent use in general, with one
// carve-out the parallel poll pipeline depends on: the read-only
// walks (Support, SupportCapped, ChainCount) take all their scratch
// from the caller and never touch the child index, so any number of
// goroutines may run them against the same arena concurrently,
// provided no mutating method (InsertSorted, Decay, Reset, Clone
// target) runs at the same time. The reusable per-tree scratch that
// makes the *owning* trees single-threaded lives in cps/fptree, not
// here.
package itemtree

import (
	"math/bits"
	"slices"
)

// NilIdx marks an empty int32 index slot. Node index 0 is the root, so
// 0 doubles as "none" for child/sibling/link slots (the root can never
// be a child, a sibling, or on a header chain).
const NilIdx = int32(0)

// Node is one arena slot. First/Next encode the child list
// (first-child/next-sibling); Link is the per-item header chain.
// Item is a token whose meaning the owning package defines (an
// attribute id, or a parent-tree rank in FPGrowth conditionals).
type Node struct {
	Count  float64
	Item   int32 // owner-defined token
	Parent int32 // arena index; 0 = root
	First  int32 // first child, 0 = none
	Next   int32 // next sibling, 0 = none
	Link   int32 // next node with the same item, 0 = none
}

// Header is the per-rank summary: the total weight the owner
// accumulates (or fixes at build time) and the node-link chain
// endpoints.
type Header struct {
	Count      float64
	Head, Tail int32
}

// Arena is the structural core: the node slab, the per-rank header
// table, and the child index. Owners register items with AddRank (one
// header per rank).
type Arena struct {
	Nodes   []Node
	Headers []Header
	// index is an open-addressing table of node indexes (NilIdx =
	// empty), power-of-two sized, at most half full, linear probing.
	// A slot's key is read back from the node it names (Parent,
	// Item), so the table stores no keys. len(index) == 0 means
	// "not built": the next InsertSorted rebuilds it from the slab.
	index []int32
	shift uint8 // 64 - log2(len(index)): slot = hash >> shift
}

// Init makes the arena a valid empty tree (root sentinel only).
func (a *Arena) Init() {
	a.Nodes = append(a.Nodes, Node{})
}

// Reset truncates the arena back to the root, clears the header table
// and empties the child index, keeping all capacity. The index keeps
// its size when it fits the tree being discarded — the next tree is
// usually similar (a restructure, a per-mine rebuild) — and is
// otherwise invalidated, so a reset never costs more than the tree it
// discards. Resetting a zero-value Arena is equivalent to Init, so
// pooled trees need no separate initialization.
func (a *Arena) Reset() {
	if len(a.index) <= 8*len(a.Nodes) {
		clear(a.index)
	} else {
		a.index = a.index[:0]
	}
	a.Nodes = append(a.Nodes[:0], Node{})
	a.Headers = a.Headers[:0]
}

// AddRank appends one rank slot to the header table.
func (a *Arena) AddRank(h Header) {
	a.Headers = append(a.Headers, h)
}

// NumNodes reports the number of tree nodes (excluding the root).
func (a *Arena) NumNodes() int { return len(a.Nodes) - 1 }

// Decay multiplies every node and header count by retain — a linear
// sweep over the slab, no pointer chasing.
func (a *Arena) Decay(retain float64) {
	for i := 1; i < len(a.Nodes); i++ {
		a.Nodes[i].Count *= retain
	}
	for i := range a.Headers {
		a.Headers[i].Count *= retain
	}
}

// CloneInto deep-copies the arena's slabs into dst. The child index is
// not copied: dst's is invalidated (keeping its capacity) and rebuilt
// by dst's first InsertSorted, so a clone that is only read costs two
// slab copies.
func (a *Arena) CloneInto(dst *Arena) {
	dst.Nodes = slices.Clone(a.Nodes)
	dst.Headers = slices.Clone(a.Headers)
	dst.index = dst.index[:0]
}

// SortByRank insertion-sorts items ascending by rank[item].
// Transactions are short and often nearly ordered, so this beats a
// sort.Slice closure and allocates nothing.
func SortByRank(items []int32, rank []int32) {
	for i := 1; i < len(items); i++ {
		v := items[i]
		r := rank[v]
		j := i - 1
		for j >= 0 && rank[items[j]] > r {
			items[j+1] = items[j]
			j--
		}
		items[j+1] = v
	}
}

// SortByRankDesc insertion-sorts items descending by rank[item]
// (deepest tree level first), the order support queries walk.
func SortByRankDesc(items []int32, rank []int32) {
	for i := 1; i < len(items); i++ {
		v := items[i]
		r := rank[v]
		j := i - 1
		for j >= 0 && rank[items[j]] < r {
			items[j+1] = items[j]
			j--
		}
		items[j+1] = v
	}
}

// InsertSorted descends the tree along a rank-sorted transaction,
// creating missing nodes (prepended to the parent's child list,
// entered in the child index, and appended to the per-rank header
// chain) and adding w to every node on the path. Each level is one
// child-index lookup. Header count accumulation stays with the owner,
// whose semantics differ between the trees. rank must cover every
// item.
func (a *Arena) InsertSorted(items []int32, rank []int32, w float64) {
	// Size for the worst case up front (every item a new node), so the
	// table stays at most half full without a check per level.
	if need := 2 * (len(a.Nodes) + len(items)); need > len(a.index) {
		a.rebuildIndex(need)
	}
	mask := len(a.index) - 1
	cur := NilIdx // root
	for _, it := range items {
		s := a.slot(cur, it)
		child := a.index[s]
		for child != NilIdx && (a.Nodes[child].Parent != cur || a.Nodes[child].Item != it) {
			s = (s + 1) & mask
			child = a.index[s]
		}
		if child == NilIdx {
			child = int32(len(a.Nodes))
			a.Nodes = append(a.Nodes, Node{Item: it, Parent: cur, Next: a.Nodes[cur].First})
			a.Nodes[cur].First = child
			a.index[s] = child
			h := &a.Headers[rank[it]]
			if h.Tail == NilIdx {
				h.Head, h.Tail = child, child
			} else {
				a.Nodes[h.Tail].Link = child
				h.Tail = child
			}
		}
		a.Nodes[child].Count += w
		cur = child
	}
}

// slot is the home slot of the (parent, item) key: a Fibonacci hash of
// the packed pair, keeping the top log2(len(index)) bits.
func (a *Arena) slot(parent, item int32) int {
	k := uint64(uint32(parent))<<32 | uint64(uint32(item))
	return int((k * 0x9E3779B97F4A7C15) >> a.shift)
}

// rebuildIndex resizes the child index to the smallest power of two
// >= need (at least 16), reusing its backing array when large enough,
// and re-enters every node of the slab.
func (a *Arena) rebuildIndex(need int) {
	size := max(16, 1<<bits.Len(uint(need-1)))
	if cap(a.index) >= size {
		a.index = a.index[:size]
		clear(a.index)
	} else {
		a.index = make([]int32, size)
	}
	a.shift = uint8(64 - bits.TrailingZeros(uint(size)))
	mask := size - 1
	for i := 1; i < len(a.Nodes); i++ {
		s := a.slot(a.Nodes[i].Parent, a.Nodes[i].Item)
		for a.index[s] != NilIdx {
			s = (s + 1) & mask
		}
		a.index[s] = int32(i)
	}
}

// ChainCount sums the node-link chain of the given rank: the live
// total weight of the item, however the owner maintains its headers.
func (a *Arena) ChainCount(r int32) float64 {
	c := 0.0
	for n := a.Headers[r].Head; n != NilIdx; n = a.Nodes[n].Link {
		c += a.Nodes[n].Count
	}
	return c
}

// Support returns the total weight of transactions containing every
// item in q, which must be sorted descending by rank (SortByRankDesc):
// it walks the node-link chain of q[0] — the deepest item — and
// matches the remaining items along each prefix path.
//
// The accumulation order is the chain order, and chains only ever
// append (InsertSorted links new nodes at the tail), so inserting
// transactions that do not contain all of q leaves this sum
// bit-identical: the matching nodes, their counts, and their visit
// order are all unchanged. The explanation layer's delta mining relies
// on that invariant to keep cached supports without recounting.
func (a *Arena) Support(q []int32, rank []int32) float64 {
	h := a.Headers[rank[q[0]]]
	total := 0.0
	for n := h.Head; n != NilIdx; n = a.Nodes[n].Link {
		need := 1 // q[0] matched at n itself
		for p := a.Nodes[n].Parent; p != NilIdx && need < len(q); p = a.Nodes[p].Parent {
			if a.Nodes[p].Item == q[need] {
				need++
			}
		}
		if need == len(q) {
			total += a.Nodes[n].Count
		}
	}
	return total
}

// SupportCapped is Support with an early exit: the chain walk stops as
// soon as the running total exceeds cap, returning the partial sum and
// exceeded=true. Callers use it when any support above cap leads to
// the same decision (e.g. risk-ratio filtering: past the break-even
// inlier count the itemset is rejected no matter how much higher the
// true support is), saving the remainder of the walk. The running
// total starts at from, so a caller summing one query over several
// trees carries the sum from walk to walk and the cap bounds the whole
// sum. With from=0, a completed walk returns a total bit-identical to
// Support's.
func (a *Arena) SupportCapped(q []int32, rank []int32, from, cap float64) (total float64, exceeded bool) {
	h := a.Headers[rank[q[0]]]
	total = from
	for n := h.Head; n != NilIdx; n = a.Nodes[n].Link {
		need := 1
		for p := a.Nodes[n].Parent; p != NilIdx && need < len(q); p = a.Nodes[p].Parent {
			if a.Nodes[p].Item == q[need] {
				need++
			}
		}
		if need == len(q) {
			total += a.Nodes[n].Count
			if total > cap {
				return total, true
			}
		}
	}
	return total, false
}
