package explain

import (
	"runtime"
	"slices"
	"sync"

	"macrobase/internal/core"
	"macrobase/internal/cps"
	"macrobase/internal/fptree"
)

// This file holds the worker-pool plumbing of the poll pipeline. Every
// poll-path pass (mine, recount, combination filter) is one striped
// implementation; W=1 is that same code run by one worker on the
// calling goroutine. Ownership rules, in one place:
//
//   - workers never share scratch: each worker owns a cps.Counter
//     (private query buffer) or an fptree.Miner (private conditional
//     frames);
//   - the structures being read (tree arenas, rank tables, the
//     qualified bitmap) are frozen for the duration of a pass — the
//     only concurrent accesses are pure reads;
//   - results land in index-addressed slots and are assembled by the
//     calling goroutine in index order, so worker scheduling can never
//     reorder (or reassociate) anything.
//
// Under those rules every pass's output is independent of the worker
// count, and PollParallelism only changes wall-clock time.

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

// zeroed returns buf resized to n zero elements, reusing its storage
// and growing it in one step when it is too small (a merged poll's
// explainer is a fresh clone, so its scratch starts empty every poll).
func zeroed[T any](buf []T, n int) []T {
	buf = slices.Grow(buf[:0], n)[:n]
	clear(buf)
	return buf
}

// stripes returns the worker count for a pass over n indexes: the
// configured parallelism clamped to [1, n], so tiny tables spawn no
// idle workers. It grows the per-worker counter pool to match.
func (s *Streaming) stripes(n int) int {
	w := max(min(s.cfg.parallelism(), n), 1)
	for len(s.counters) < w {
		s.counters = append(s.counters, &cps.Counter{})
	}
	return w
}

// outlierSupports returns the canonical outlier-tree support of every
// query, striped across workers; a nil query's slot stays zero. The
// slots are per-explainer scratch, valid until the next call.
func (s *Streaming) outlierSupports(queries [][]int32) []float64 {
	counts := zeroed(s.supports, len(queries))
	s.supports = counts
	w := s.stripes(len(queries))
	runStriped(w, func(wk int) {
		c := s.counters[wk]
		c.Retarget(s.outTree)
		for idx := wk; idx < len(queries); idx += w {
			if q := queries[idx]; q != nil {
				counts[idx] = c.Support(q)
			}
		}
	})
	return counts
}

// comboVerdict is one slot of the striped combination-filter pass:
// the inlier count of a candidate itemset plus the flags assembly
// branches on.
type comboVerdict struct {
	ai       float64
	exceeded bool
	keep     bool
}

// filterCombinations counts each multi-attribute candidate of tab
// against the inlier side and keeps those that pass the risk-ratio
// filter, appending them to exps. Only candidates whose attributes all
// qualified individually are tested (and counted in tested). The
// inlier support walks are striped across workers, each querying the
// frozen inlier trees through its private Counter with the break-even
// cap; verdicts are assembled in table order on the calling goroutine,
// so exps, tested, and the EarlyExits tally are independent of the
// worker count.
func (s *Streaming) filterCombinations(tab []fptree.Itemset, exps []core.Explanation, tested int) ([]core.Explanation, int) {
	v := zeroed(s.verdicts, len(tab))
	s.verdicts = v
	w := s.stripes(len(tab))
	tally := zeroed(s.exitTally, w)
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
			// Past break-even the risk ratio is decisively below
			// MinRiskRatio no matter how much higher the true inlier
			// count is; the filter below would reject.
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
