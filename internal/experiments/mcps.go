package experiments

import (
	"time"

	"macrobase/internal/cps"
	"macrobase/internal/gen"
	"macrobase/internal/sketch"
)

// MCPSvsCPS reproduces the Appendix D comparison between the
// M-CPS-tree (AMC-gated, pruned, bounded) and the original CPS-tree
// (stores a node for every item ever observed). Both ingest the same
// attribute transactions with a decay/restructure every window; the
// CPS-tree's restructuring must re-sort every stored item, so its cost
// explodes with attribute cardinality (paper: 130x slower on average,
// >1000x on Campaign).
func MCPSvsCPS(scale float64) []*Table {
	n := scaled(400_000, scale, 40_000)
	window := 25_000
	budget := 10 * time.Second
	t := &Table{
		ID:      "mcps",
		Title:   "M-CPS-tree vs CPS-tree ingest+restructure time",
		Columns: []string{"query", "mcps(s)", "cps(s)", "slowdown", "cps_items", "mcps_items"},
		Notes:   "paper: CPS avg 130x slower, >1000x on Campaign (high cardinality); Accidents only ~1.3-1.7x (9 weather values). With the flat-arena trees the gap at small scale is much narrower than the paper's: restructure cost is no longer dominated by per-item map churn, so the CPS penalty (re-sorting every stored item) only re-emerges at paper-scale cardinalities and windows. The hashed (parent, item) child index made both trees ~2.5-4x faster at scale 0.02 (2 vCPUs: LC mcps 0.084 -> 0.020 s, EC 0.108 -> 0.031 s, MC 0.089 -> 0.037 s) without moving the ratio, which stays ~1.0-1.5: CPS and M-CPS share the arena, so both shed the sibling scans",
	}
	for _, name := range []string{"Accidents", "Liquor", "Campaign", "CMT"} {
		ds, err := gen.DatasetByName(name)
		if err != nil {
			continue
		}
		_, pts, _ := ds.Generate(gen.GenerateConfig{Points: n, Simple: false, Seed: 13_000})

		// Only tree operations are timed; the AMC that feeds the
		// M-CPS frequent set is shared pipeline state in MDP and
		// identical for both strategies, so it runs off the clock.
		runTree := func(tree *cps.Tree, mcps bool) (time.Duration, int, bool) {
			amc := sketch.NewAMC[int32](10_000, 0.01)
			var freqItems []int32
			var freqCounts []float64
			var elapsed time.Duration
			for i := range pts {
				for _, a := range pts[i].Attrs {
					amc.Observe(a, 1)
				}
				elapsed += timeIt(func() { tree.Insert(pts[i].Attrs, 1) })
				if (i+1)%window == 0 {
					if mcps {
						freqItems, freqCounts = freqItems[:0], freqCounts[:0]
						minCount := 0.001 * float64(window)
						amc.ForEach(func(item int32, c float64) {
							if c >= minCount {
								freqItems = append(freqItems, item)
								freqCounts = append(freqCounts, c)
							}
						})
						elapsed += timeIt(func() { tree.Restructure(freqItems, freqCounts, 0.99) })
						amc.Decay()
					} else {
						elapsed += timeIt(func() { tree.Restructure(nil, nil, 0.99) })
					}
					if elapsed > budget {
						return elapsed, tree.NumItems(), false
					}
				}
			}
			return elapsed, tree.NumItems(), true
		}

		mTime, mItems, _ := runTree(cps.NewMCPS(), true)
		cTime, cItems, cDone := runTree(cps.NewCPS(), false)
		slow := cTime.Seconds() / mTime.Seconds()
		cpsCell := f3(cTime.Seconds())
		slowCell := f2(slow)
		if !cDone {
			cpsCell = ">" + cpsCell + " (cut)"
			slowCell = ">" + slowCell
		}
		t.AddRow(QueryName(name, false), f3(mTime.Seconds()), cpsCell, slowCell, itoa(cItems), itoa(mItems))
	}
	return []*Table{t}
}
