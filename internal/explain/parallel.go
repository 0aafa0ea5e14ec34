package explain

import (
	"runtime"
	"sync"

	"macrobase/internal/core"
	"macrobase/internal/cps"
	"macrobase/internal/fptree"
)

// This file holds the worker-pool plumbing of the parallel poll
// pipeline. Ownership rules, in one place:
//
//   - workers never share scratch: each worker owns a cps.Counter
//     (private query buffer) or an fptree.Miner (private conditional
//     frames);
//   - the structures being read (tree arenas, rank tables, the
//     qualified bitmap) are frozen for the duration of a pass — the
//     only concurrent accesses are pure reads;
//   - results land in index-addressed slots and are assembled by the
//     calling goroutine in the serial loop's order, so worker
//     scheduling can never reorder (or reassociate) anything.
//
// Under those rules every parallel pass is bit-identical to its
// serial twin, and PollParallelism only changes wall-clock time.

// parallelism resolves the effective poll worker count: the
// configured PollParallelism, or GOMAXPROCS when unset.
func (c StreamingConfig) parallelism() int {
	if c.PollParallelism > 0 {
		return c.PollParallelism
	}
	return runtime.GOMAXPROCS(0)
}

// runStriped runs body(w) for w in [0, workers); worker w owns the
// stripe idx ≡ w (mod workers) of whatever index space the caller
// shards. workers-1 goroutines plus the calling goroutine; returns
// when all finish. Striping is deterministic — a given (input,
// workers) pair always hands the same elements to the same worker —
// so allocation patterns stay reproducible for the bench gates.
func runStriped(workers int, body func(w int)) {
	if workers <= 1 {
		body(0)
		return
	}
	var wg sync.WaitGroup
	wg.Add(workers - 1)
	for w := 1; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			body(w)
		}(w)
	}
	body(0)
	wg.Wait()
}

// ensureCounters grows the per-worker counter pool to n.
func (s *Streaming) ensureCounters(n int) {
	for len(s.counters) < n {
		s.counters = append(s.counters, &cps.Counter{})
	}
}

// comboVerdict is one slot of the striped combination-filter pass:
// the inlier count of a candidate itemset plus the flags the serial
// loop would have branched on.
type comboVerdict struct {
	ai       float64
	exceeded bool
	keep     bool
}

// filterCombinationsParallel is the combination-filter loop of
// Explanations with the inlier support walks striped across w
// workers. The qualified-attribute prefilter, break-even cap, and
// risk-ratio test are evaluated exactly as in the serial loop; only
// the walks run concurrently (each worker queries the frozen inlier
// trees through its private Counter). Verdicts are assembled in table
// order on the calling goroutine, so exps, tested, and the EarlyExits
// tally come out identical to the serial loop's.
func (s *Streaming) filterCombinationsParallel(tab []fptree.Itemset, w int, exps []core.Explanation, tested int) ([]core.Explanation, int) {
	v := s.verdicts[:0]
	for range tab {
		v = append(v, comboVerdict{})
	}
	s.verdicts = v
	s.ensureCounters(w)
	tally := s.exitTally[:0]
	for i := 0; i < w; i++ {
		tally = append(tally, 0)
	}
	s.exitTally = tally
	runStriped(w, func(wk int) {
		c := s.counters[wk]
		for idx := wk; idx < len(tab); idx += w {
			is := tab[idx]
			if !s.allQualified(is.Items) {
				continue
			}
			sl := &v[idx]
			sl.keep = true
			sl.ai, sl.exceeded = s.inlierSupport(c, is.Items, s.inlierCap(is.Count))
			if sl.exceeded {
				tally[wk]++
			}
		}
	})
	for _, n := range tally {
		s.stats.EarlyExits += n
	}
	for idx, is := range tab {
		if !v[idx].keep {
			continue
		}
		tested++
		if v[idx].exceeded {
			continue
		}
		rr := RiskRatio(is.Count, v[idx].ai, s.totalOut, s.totalIn)
		if rr < s.cfg.MinRiskRatio {
			continue
		}
		exps = append(exps, core.Explanation{
			ItemIDs:       is.Items,
			Support:       is.Count / s.totalOut,
			RiskRatio:     rr,
			OutlierCount:  is.Count,
			InlierCount:   v[idx].ai,
			TotalOutliers: s.totalOut,
			TotalInliers:  s.totalIn,
		})
	}
	return exps, tested
}
