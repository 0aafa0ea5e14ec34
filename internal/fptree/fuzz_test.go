package fptree

import (
	"reflect"
	"testing"
)

// decodeFuzzTxs turns raw fuzz bytes into a bounded transaction list
// plus a mining threshold. Encoding: byte 0 picks minCount (1..4);
// each following byte < 0xF0 adds item b%7 to the current transaction
// (duplicates collapse), a byte >= 0xF0 terminates it. Sizes are
// capped so the brute-force oracle stays cheap.
func decodeFuzzTxs(data []byte) ([][]int32, float64) {
	if len(data) < 2 {
		return nil, 0
	}
	minCount := float64(1 + int(data[0])%4)
	var txs [][]int32
	cur := map[int32]bool{}
	flush := func() {
		if len(cur) == 0 {
			return
		}
		tx := make([]int32, 0, len(cur))
		for it := range cur {
			tx = append(tx, it)
		}
		txs = append(txs, tx)
		cur = map[int32]bool{}
	}
	for _, b := range data[1:] {
		if len(txs) >= 24 {
			break
		}
		if b >= 0xF0 {
			flush()
			continue
		}
		if len(cur) < 6 {
			cur[int32(b%7)] = true
		}
	}
	flush()
	if len(txs) == 0 {
		return nil, 0
	}
	return txs, minCount
}

// FuzzMine drives Build+MineWith against the exhaustive brute-force
// oracle at 1, 2 and 3 workers, all drawing on one reused Miner set
// so the reusable conditional-tree frames and per-worker outputs are
// proven not to leak state between mines. Every worker count must
// match the oracle and be element-wise identical to the one-worker
// mine, order included.
func FuzzMine(f *testing.F) {
	f.Add([]byte{0x01, 1, 2, 3, 0xFF, 1, 2, 0xFF, 1, 3, 0xFF, 1, 0xFF, 2, 3})
	f.Add([]byte{0x00, 0, 1, 2, 3, 4, 5, 6, 0xFF, 0, 1, 2, 0xFF, 4, 5, 6})
	f.Add([]byte{0x03, 5, 5, 5, 0xFF, 5, 0xFF, 5})
	f.Fuzz(func(t *testing.T, data []byte) {
		txs, minCount := decodeFuzzTxs(data)
		if txs == nil {
			return
		}
		want := bruteForce(txs, nil, minCount, 0)
		tree := Build(txs, nil, minCount)
		miners := []*Miner{{}, {}, {}}
		check := func(stage string) {
			var w1 []Itemset
			for w := 1; w <= len(miners); w++ {
				mined := tree.MineWith(miners[:w], minCount, 0)
				got := map[string]float64{}
				for _, is := range mined {
					got[key(is.Items)] = is.Count
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s W=%d: mined %v != brute %v (txs %v, min %v)", stage, w, got, want, txs, minCount)
				}
				if w == 1 {
					w1 = mined
				} else if !reflect.DeepEqual(mined, w1) {
					t.Fatalf("%s W=%d: %v != W=1 %v (txs %v, min %v)", stage, w, mined, w1, txs, minCount)
				}
			}
		}
		check("pass 0")
		check("pass 1")
		// Rebuilding into the same tree must behave like a fresh build.
		BuildInto(tree, txs, nil, minCount)
		check("rebuilt")
	})
}
