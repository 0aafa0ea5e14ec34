package cps

import (
	"math"
	"sort"
	"testing"
)

// The cps fuzz target drives a random insert → restructure → mine op
// sequence decoded from raw bytes against a brute-force model: a flat
// multiset of weighted transactions to which the M-CPS semantics
// (decay, frequent-set projection, insert filtering) are applied
// directly. Decay factors are restricted to {1, 0.5} so every weight
// stays an exactly representable dyadic rational and the oracle
// comparison needs no float tolerance beyond summation noise.

// modelTx mirrors one stored transaction.
type modelTx struct {
	items []int32
	w     float64
}

type treeModel struct {
	txs     []modelTx
	allowed map[int32]bool // nil = no filter (pre-restructure / keep-all)
}

func (m *treeModel) insert(tx []int32) {
	kept := make([]int32, 0, len(tx))
	for _, it := range tx {
		if m.allowed == nil || m.allowed[it] {
			kept = append(kept, it)
		}
	}
	if len(kept) > 0 {
		m.txs = append(m.txs, modelTx{items: kept, w: 1})
	}
}

// counts returns the per-item weighted support of the model.
func (m *treeModel) counts() map[int32]float64 {
	c := map[int32]float64{}
	for _, tx := range m.txs {
		for _, it := range tx.items {
			c[it] += tx.w
		}
	}
	return c
}

// restructure applies the M-CPS window-boundary maintenance to the
// model: decay, then keep only items whose decayed support clears
// threshold, projecting every stored transaction onto that set.
// threshold < 0 means keep-all (the CPS baseline shape), which also
// clears the insert filter.
func (m *treeModel) restructure(threshold, retain float64) ([]int32, []float64) {
	for i := range m.txs {
		m.txs[i].w *= retain
	}
	c := m.counts()
	if threshold < 0 {
		m.allowed = nil
		return nil, nil
	}
	m.allowed = map[int32]bool{}
	for it, w := range c {
		if w >= threshold {
			m.allowed[it] = true
		}
	}
	var kept []modelTx
	for _, tx := range m.txs {
		var proj []int32
		for _, it := range tx.items {
			if m.allowed[it] {
				proj = append(proj, it)
			}
		}
		if len(proj) > 0 {
			kept = append(kept, modelTx{items: proj, w: tx.w})
		}
	}
	m.txs = kept
	items := make([]int32, 0, len(m.allowed))
	for it := range m.allowed {
		items = append(items, it)
	}
	sort.Slice(items, func(i, j int) bool { return items[i] < items[j] })
	counts := make([]float64, len(items))
	for i, it := range items {
		counts[i] = c[it]
	}
	return items, counts
}

// bruteMine enumerates every itemset with weighted support >= minCount
// over the model, with anti-monotone pruning.
func (m *treeModel) bruteMine(minCount float64) map[string]float64 {
	c := m.counts()
	var universe []int32
	for it := range c {
		universe = append(universe, it)
	}
	sort.Slice(universe, func(i, j int) bool { return universe[i] < universe[j] })
	out := map[string]float64{}
	var rec func(start int, cur []int32)
	rec = func(start int, cur []int32) {
		if len(cur) > 0 {
			w := 0.0
			for _, tx := range m.txs {
				has := map[int32]bool{}
				for _, it := range tx.items {
					has[it] = true
				}
				all := true
				for _, it := range cur {
					if !has[it] {
						all = false
						break
					}
				}
				if all {
					w += tx.w
				}
			}
			if w >= minCount {
				out[key(cur)] = w
			} else {
				return
			}
		}
		for i := start; i < len(universe); i++ {
			rec(i+1, append(cur, universe[i]))
		}
	}
	rec(0, nil)
	return out
}

// FuzzTreeOps decodes an op script from the fuzz input and checks the
// M-CPS-tree against the model after every mine op. Op encoding, one
// leading opcode byte each:
//
//	0x00-0x9F  insert: following bytes % 9 are items until a byte >= 0xF0
//	0xA0-0xCF  restructure: next byte → threshold (opcode bit 4 set =
//	           keep-all) and retain (bit 0: 0.5, else 1)
//	0xD0-0xEF  mine + compare (next byte → minCount)
func FuzzTreeOps(f *testing.F) {
	f.Add([]byte{0x01, 1, 2, 3, 0xFF, 0x02, 1, 2, 0xFF, 0xD0, 0x01})
	f.Add([]byte{0x01, 1, 2, 0xFF, 0xA1, 0x02, 0x03, 4, 5, 0xFF, 0xD1, 0x00})
	f.Add([]byte{0x05, 0, 1, 2, 3, 0xFF, 0xB0, 0x00, 0x01, 0, 1, 0xFF, 0xD0, 0x02, 0xA0, 0x01, 0xD2, 0x01})
	f.Fuzz(func(t *testing.T, data []byte) {
		tree := NewMCPS()
		model := &treeModel{}
		lastEpoch := tree.Epoch()
		inserts, mines := 0, 0
		for i := 0; i < len(data) && inserts < 48 && mines < 12; i++ {
			op := data[i]
			switch {
			case op < 0xA0: // insert
				seen := map[int32]bool{}
				for i++; i < len(data) && data[i] < 0xF0 && len(seen) < 6; i++ {
					seen[int32(data[i]%9)] = true
				}
				if len(seen) == 0 {
					continue
				}
				tx := make([]int32, 0, len(seen))
				for it := range seen {
					tx = append(tx, it)
				}
				sort.Slice(tx, func(a, b int) bool { return tx[a] < tx[b] })
				tree.Insert(tx, 1)
				model.insert(tx)
				inserts++
			case op < 0xD0: // restructure
				if i+1 >= len(data) {
					break
				}
				i++
				retain := 1.0
				if op&1 == 1 {
					retain = 0.5
				}
				if op&0x10 != 0 {
					model.restructure(-1, retain)
					tree.Restructure(nil, nil, retain)
				} else {
					threshold := float64(1+int(data[i])%4) * 0.5
					items, counts := model.restructure(threshold, retain)
					if items == nil {
						items = []int32{} // empty frequent set prunes all; nil means keep-all
					}
					tree.Restructure(items, counts, retain)
				}
			default: // mine + compare
				if i+1 >= len(data) {
					break
				}
				i++
				mines++
				minCount := float64(1+int(data[i])%4) * 0.5
				mined := tree.Mine(minCount, 0, 1)
				got := map[string]float64{}
				for _, is := range mined {
					got[key(is.Items)] = is.Count
				}
				want := model.bruteMine(minCount)
				if len(got) != len(want) {
					t.Fatalf("mine(%v): %d itemsets, model %d\ntree %v\nmodel %v\nops %x", minCount, len(got), len(want), got, want, data)
				}
				for k, w := range want {
					g, ok := got[k]
					if !ok || math.Abs(g-w) > 1e-9 {
						t.Fatalf("mine(%v): itemset %s = %v, model %v (ops %x)", minCount, k, g, w, data)
					}
				}
				// Cross-check the support query path on every mined
				// itemset.
				for _, is := range mined {
					if s := tree.ItemsetSupport(is.Items); math.Abs(s-is.Count) > 1e-9 {
						t.Fatalf("ItemsetSupport(%v) = %v, mined %v (ops %x)", is.Items, s, is.Count, data)
					}
				}
			}
			if e := tree.Epoch(); i < len(data) && e < lastEpoch {
				t.Fatalf("epoch went backwards: %d -> %d", lastEpoch, e)
			} else {
				lastEpoch = e
			}
		}
	})
}
