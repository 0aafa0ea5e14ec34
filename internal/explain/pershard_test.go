package explain

import (
	"math"
	"math/rand/v2"
	"reflect"
	"slices"
	"testing"

	"macrobase/internal/core"
	"macrobase/internal/cps"
)

// perShardStream builds n labeled points of 2-4 attributes from a
// universe of 12; a quarter are outliers, half of those carry the pair
// {hot, hot+1} and half the pair {10, 11}. Giving each shard its own
// hot pair makes the shards' outlier-frequent sets — and so the items
// their inlier trees keep across a decay tick — differ, while the
// shared pair gives itemsets support on several shards at once.
func perShardStream(rng *rand.Rand, n int, hot int32) []core.LabeledPoint {
	pts := make([]core.LabeledPoint, n)
	for i := range pts {
		p := &pts[i]
		p.Label = core.Inlier
		if rng.IntN(4) == 0 {
			p.Label = core.Outlier
		}
		seen := map[int32]bool{}
		if p.Label == core.Outlier && rng.IntN(2) == 0 {
			seen[hot], seen[hot+1] = true, true
		}
		if p.Label == core.Outlier && rng.IntN(2) == 0 {
			seen[10], seen[11] = true, true
		}
		for len(seen) < 2+rng.IntN(3) {
			seen[int32(rng.IntN(12))] = true
		}
		for a := range seen {
			p.Attrs = append(p.Attrs, a)
		}
		slices.Sort(p.Attrs)
	}
	return pts
}

// itemsetsUpTo3 lists every 2- and 3-item subset of [0, n).
func itemsetsUpTo3(n int32) [][]int32 {
	var out [][]int32
	for a := int32(0); a < n; a++ {
		for b := a + 1; b < n; b++ {
			out = append(out, []int32{a, b})
			for c := b + 1; c < n; c++ {
				out = append(out, []int32{a, b, c})
			}
		}
	}
	return out
}

// TestPerShardInlierCountsEqualMergedTree pins the identity the merged
// poll rests on: summing per-shard inlier support walks gives the
// support of the merged inlier tree (a merge is a lossless union of
// weighted paths), and the capped running sum exits exactly when the
// full sum passes the cap.
func TestPerShardInlierCountsEqualMergedTree(t *testing.T) {
	cfg := StreamingConfig{MinSupport: 0.27, MinRiskRatio: 1.5, DecayRate: 0.1}
	for _, p := range []int{2, 4} {
		for seed := uint64(0); seed < 4; seed++ {
			rng := rand.New(rand.NewPCG(seed, uint64(p)*7919))
			shards := make([]*Streaming, p)
			for i := range shards {
				shards[i] = NewStreaming(cfg)
			}
			for round := 0; round < 6; round++ {
				for i, sh := range shards {
					sh.Consume(perShardStream(rng, 300, int32(2*i)))
				}
				if round%2 == 1 {
					for _, sh := range shards {
						sh.Decay()
					}
				}
			}
			// The shards' inlier trees must disagree on what they track,
			// or the test would not cover per-shard rank tables.
			differ := false
			for it := int32(0); it < 12 && !differ; it++ {
				for _, sh := range shards[1:] {
					if (shards[0].inTree.ItemCount(it) > 0) != (sh.inTree.ItemCount(it) > 0) {
						differ = true
					}
				}
			}
			if !differ {
				t.Fatalf("P=%d seed %d: every shard tracks the same inlier items", p, seed)
			}

			union := shards[0].Clone()
			for _, sh := range shards[1:] {
				union.Merge(sh)
			}
			view := shards[0].pollClone()
			mergeInto(view, shards[1:])
			var c cps.Counter
			spread := 0 // itemsets with inlier support on ≥2 shards
			for _, q := range itemsetsUpTo3(12) {
				want := union.inTree.ItemsetSupport(q)
				naive, on := 0.0, 0
				for _, sh := range shards {
					if n := sh.inTree.ItemsetSupport(q); n > 0 {
						naive += n
						on++
					}
				}
				if on >= 2 {
					spread++
				}
				got, exceeded := view.inlierSupport(&c, q, math.Inf(1))
				if exceeded {
					t.Fatalf("P=%d seed %d %v: uncapped walk exceeded", p, seed, q)
				}
				tol := 1e-9 * math.Max(1, math.Abs(want))
				if math.Abs(got-want) > tol || math.Abs(naive-want) > tol {
					t.Fatalf("P=%d seed %d %v: per-shard sum %v (naive %v), merged tree %v", p, seed, q, got, naive, want)
				}
				for _, f := range []float64{0, 0.25, 0.5, 0.999, 1, 1.001, 2} {
					cap := got * f
					part, ex := view.inlierSupport(&c, q, cap)
					if ex != (got > cap) {
						t.Fatalf("P=%d seed %d %v cap %v: exceeded=%v, full sum %v", p, seed, q, cap, ex, got)
					}
					if ex && part <= cap {
						t.Fatalf("P=%d seed %d %v: exceeded with running sum %v <= cap %v", p, seed, q, part, cap)
					}
					if !ex && part != got {
						t.Fatalf("P=%d seed %d %v: completed capped walk %v != full sum %v", p, seed, q, part, got)
					}
				}
			}
			if spread == 0 {
				t.Fatalf("P=%d seed %d: no itemset has inlier support on two shards", p, seed)
			}
		}
	}
}

// TestMergedCacheKeyCoversEveryShardInlierTree: a merged poll's
// explainer counts inliers over every shard's tree, so movement in
// shard k≠0's inlier tree alone must change its cache key and keep it
// from replaying a stale ranked output.
func TestMergedCacheKeyCoversEveryShardInlierTree(t *testing.T) {
	rng := rand.New(rand.NewPCG(21, 22))
	shards := []*Streaming{NewStreaming(cacheCfg), NewStreaming(cacheCfg), NewStreaming(cacheCfg)}
	for i, sh := range shards {
		sh.Consume(perShardStream(rng, 800, int32(2*i)))
	}
	view := shards[0].pollClone()
	mergeInto(view, shards[1:])
	view.Explanations()
	before := view.cacheKeyNow()
	// Only shard 2's inlier tree moves: no total, no other tree.
	shards[2].inTree.Insert([]int32{0, 1, 2}, 5)
	if view.cacheKeyNow().equal(before) {
		t.Fatal("cache key ignores a shard k≠0 inlier tree")
	}
	view.Explanations()
	if st := view.CacheStats(); st.FullHits != 0 {
		t.Fatalf("stats %+v: poll after shard 2's inlier tree moved was a full hit", st)
	}
}

// TestPollMergerInlierMovementOnOneShard drives the session's
// snapshot-elision path: shard snapshots are retained across polls and
// only a moved shard is re-snapshotted. When only shard k≠0's inlier
// side moves, the next poll must not be a full hit, must reuse the
// mined table (the outlier side is unchanged), and must equal a
// cache-disabled merge of the same states.
func TestPollMergerInlierMovementOnOneShard(t *testing.T) {
	const p = 3
	for _, w := range diffParallelisms {
		for k := 1; k < p; k++ {
			rng := rand.New(rand.NewPCG(uint64(k), 31))
			cfg := cacheCfg
			cfg.PollParallelism = w
			plainCfg := cfg
			plainCfg.DisableCache = true
			shards, plain := make([]*Streaming, p), make([]*Streaming, p)
			for i := range shards {
				shards[i], plain[i] = NewStreaming(cfg), NewStreaming(plainCfg)
				batch := perShardStream(rng, 800, int32(2*i))
				shards[i].Consume(batch)
				plain[i].Consume(batch)
			}
			snaps := make([]*Streaming, p)
			for i, sh := range shards {
				snaps[i] = sh.SnapshotClone()
			}
			m := NewPollMerger()
			m.MergeShared(snaps)
			more := inlierOnly(perShardStream(rng, 400, int32(2*k)))
			shards[k].Consume(more)
			plain[k].Consume(more)
			snaps[k] = shards[k].SnapshotClone()
			got := m.MergeShared(snaps)
			cl := make([]*Streaming, p)
			for i, sh := range plain {
				cl[i] = sh.Clone()
			}
			want := MergeStreamingInto(cl)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("W=%d k=%d: poll diverged from cache-disabled merge:\n%v\n%v", w, k, got, want)
			}
			if st := m.Stats(); st.FullHits != 0 || st.MineReuses != 1 {
				t.Fatalf("W=%d k=%d: stats %+v, want no full hit and one mine reuse", w, k, st)
			}
		}
	}
}
