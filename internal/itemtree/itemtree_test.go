package itemtree

import (
	"math/rand/v2"
	"slices"
	"sync"
	"testing"
)

// The arena core is exercised end-to-end by the cps and fptree suites
// (equivalence against brute force, goldens); these tests pin the
// structural primitives in isolation.

func buildArena(t *testing.T, rank []int32, txs [][]int32) *Arena {
	t.Helper()
	var a Arena
	a.Init()
	ranks := 0
	for _, r := range rank {
		if int(r)+1 > ranks {
			ranks = int(r) + 1
		}
	}
	for i := 0; i < ranks; i++ {
		a.AddRank(Header{})
	}
	for _, tx := range txs {
		cp := append([]int32(nil), tx...)
		SortByRank(cp, rank)
		a.InsertSorted(cp, rank, 1)
	}
	return &a
}

func TestSortByRank(t *testing.T) {
	rank := []int32{2, 0, 1}
	items := []int32{0, 1, 2}
	SortByRank(items, rank)
	if items[0] != 1 || items[1] != 2 || items[2] != 0 {
		t.Fatalf("SortByRank = %v, want [1 2 0]", items)
	}
	SortByRankDesc(items, rank)
	if items[0] != 0 || items[1] != 2 || items[2] != 1 {
		t.Fatalf("SortByRankDesc = %v, want [0 2 1]", items)
	}
}

func TestInsertSharesPrefixes(t *testing.T) {
	rank := []int32{0, 1, 2}
	a := buildArena(t, rank, [][]int32{{0, 1}, {0, 1}, {0, 2}})
	if got := a.NumNodes(); got != 3 {
		t.Fatalf("NumNodes = %d, want 3 (shared prefix)", got)
	}
	if got := a.ChainCount(0); got != 3 {
		t.Fatalf("ChainCount(rank 0) = %v, want 3", got)
	}
	q := []int32{0, 1}
	SortByRankDesc(q, rank)
	if got := a.Support(q, rank); got != 2 {
		t.Fatalf("Support({0,1}) = %v, want 2", got)
	}
}

func TestDecayAndCloneAndReset(t *testing.T) {
	rank := []int32{0, 1}
	a := buildArena(t, rank, [][]int32{{0, 1}, {0}})
	a.Headers[0].Count = 2
	a.Headers[1].Count = 1
	var c Arena
	a.CloneInto(&c)
	a.Decay(0.5)
	if got := a.ChainCount(0); got != 1 {
		t.Fatalf("decayed ChainCount = %v, want 1", got)
	}
	if got := a.Headers[0].Count; got != 1 {
		t.Fatalf("decayed header = %v, want 1", got)
	}
	if got := c.ChainCount(0); got != 2 {
		t.Fatalf("clone decayed with original: %v, want 2", got)
	}
	a.Reset()
	if a.NumNodes() != 0 || len(a.Headers) != 0 {
		t.Fatal("Reset left structure behind")
	}
	if c.NumNodes() == 0 {
		t.Fatal("Reset clobbered the clone")
	}
}

// refInsert is the descent InsertSorted replaced: a linear
// first-child/next-sibling scan at every level, root included. It
// builds the slab without the child index, so it is the reference the
// indexed insert must reproduce node for node.
func refInsert(a *Arena, items []int32, rank []int32, w float64) {
	cur := NilIdx
	for _, it := range items {
		child := NilIdx
		for c := a.Nodes[cur].First; c != NilIdx; c = a.Nodes[c].Next {
			if a.Nodes[c].Item == it {
				child = c
				break
			}
		}
		if child == NilIdx {
			child = int32(len(a.Nodes))
			a.Nodes = append(a.Nodes, Node{Item: it, Parent: cur, Next: a.Nodes[cur].First})
			a.Nodes[cur].First = child
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

// randomTxs draws n rank-sorted transactions over nItems items whose
// rank is their id. Half of them share the prefix {0, 1, 2} and fan
// out below it, so one parent collects hundreds of children (the shape
// that made the sibling scan slow); the rest are uniform, 1-6 items.
func randomTxs(rng *rand.Rand, n, nItems int) [][]int32 {
	txs := make([][]int32, n)
	for i := range txs {
		var tx []int32
		if rng.IntN(2) == 0 {
			tx = []int32{0, 1, 2, int32(3 + rng.IntN(nItems-3))}
			if rng.IntN(2) == 0 {
				tx = append(tx, int32(3+rng.IntN(nItems-3)))
			}
		} else {
			for k := 1 + rng.IntN(6); k > 0; k-- {
				tx = append(tx, int32(rng.IntN(nItems)))
			}
		}
		slices.Sort(tx)
		txs[i] = slices.Compact(tx)
	}
	return txs
}

func identityRank(n int) []int32 {
	rank := make([]int32, n)
	for i := range rank {
		rank[i] = int32(i)
	}
	return rank
}

func addRanks(a *Arena, n int) {
	for i := 0; i < n; i++ {
		a.AddRank(Header{})
	}
}

func requireSameSlabs(t *testing.T, what string, got, want *Arena) {
	t.Helper()
	if !slices.Equal(got.Nodes, want.Nodes) {
		t.Fatalf("%s: Nodes differ from the sibling-scan reference (%d vs %d nodes)", what, len(got.Nodes), len(want.Nodes))
	}
	if !slices.Equal(got.Headers, want.Headers) {
		t.Fatalf("%s: Headers differ from the sibling-scan reference", what)
	}
}

// TestInsertSortedMatchesSiblingScan: the hashed child index changes
// how a child is found, never which node is found or created, so the
// slabs must equal the linear-scan reference element by element —
// across index growth, after Reset and reuse, and after CloneInto over
// an arena whose old index would answer for a different tree.
func TestInsertSortedMatchesSiblingScan(t *testing.T) {
	const nItems = 400
	rank := identityRank(nItems)
	for seed := uint64(1); seed <= 5; seed++ {
		rng := rand.New(rand.NewPCG(seed, 7))
		var a, ref Arena
		a.Init()
		ref.Init()
		addRanks(&a, nItems)
		addRanks(&ref, nItems)

		// Growth: thousands of nodes from an empty index, through
		// several rebuilds.
		sizes := map[int]bool{}
		for _, tx := range randomTxs(rng, 3000, nItems) {
			w := float64(1 + rng.IntN(3))
			a.InsertSorted(tx, rank, w)
			refInsert(&ref, tx, rank, w)
			sizes[len(a.index)] = true
		}
		if len(sizes) < 4 {
			t.Fatalf("seed %d: index took %d sizes, want several rebuilds", seed, len(sizes))
		}
		requireSameSlabs(t, "growth", &a, &ref)

		// A used arena as clone target, before a's own reset: its
		// index is large and fully populated for a different tree.
		var dst Arena
		dst.Init()
		addRanks(&dst, nItems)
		for _, tx := range randomTxs(rng, 2000, nItems) {
			dst.InsertSorted(tx, rank, 1)
		}

		// Reset, then reuse with a different, smaller stream.
		a.Reset()
		ref.Reset()
		addRanks(&a, nItems)
		addRanks(&ref, nItems)
		for _, tx := range randomTxs(rng, 300, nItems) {
			a.InsertSorted(tx, rank, 1)
			refInsert(&ref, tx, rank, 1)
		}
		requireSameSlabs(t, "reset and reuse", &a, &ref)

		// CloneInto the used arena, then keep inserting into the
		// clone: none of dst's stale entries may be read.
		a.CloneInto(&dst)
		var refClone Arena
		ref.CloneInto(&refClone)
		for _, tx := range randomTxs(rng, 1000, nItems) {
			dst.InsertSorted(tx, rank, 1)
			refInsert(&refClone, tx, rank, 1)
		}
		requireSameSlabs(t, "clone into a used arena", &dst, &refClone)
		requireSameSlabs(t, "clone source", &a, &ref)
	}
}

// TestConcurrentReadsLeaveIndexAlone: the read walks run concurrently
// on one arena (striped inlier counting does this), so none of them may
// build or touch the child index. They run here on a fresh clone, whose
// index is unbuilt; under -race, a read that built it would be flagged,
// and the index must still be unbuilt afterwards.
func TestConcurrentReadsLeaveIndexAlone(t *testing.T) {
	const nItems = 60
	rank := identityRank(nItems)
	src := buildArena(t, rank, randomTxs(rand.New(rand.NewPCG(3, 4)), 500, nItems))
	var a Arena
	src.CloneInto(&a)
	q := []int32{9, 2, 1, 0}
	want := src.Support(q, rank)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				got := a.Support(q, rank)
				capped, _ := a.SupportCapped(q, rank, 0, want+1)
				if got != want || capped != want {
					t.Errorf("Support %v, SupportCapped %v, want %v", got, capped, want)
					return
				}
				a.ChainCount(int32(i % nItems))
			}
		}()
	}
	wg.Wait()
	if len(a.index) != 0 {
		t.Fatalf("read walks built the child index (len %d)", len(a.index))
	}
}
