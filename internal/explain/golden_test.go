package explain

import (
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"macrobase/internal/core"
	"macrobase/internal/gen"
)

// The golden tests pin the streaming explainer's ranked output — and
// the sharded merge/clone protocol — on two paper workloads, so that
// internal rewrites of the explanation structures (prefix trees,
// sketches) can be proven output-equivalent: the files under testdata/
// were generated before the flat-arena rewrite and must keep matching
// after it. Regenerate with
//
//	go test ./internal/explain -run Golden -update-golden
var updateGolden = flag.Bool("update-golden", false, "rewrite golden explanation files")

// goldenWorkload builds a deterministic labeled stream from a gen
// dataset: the top outlierRate fraction of metric[0] values are labeled
// outliers, so labeling does not depend on any trainable classifier.
func goldenWorkload(t testing.TB, name string, n int, seed uint64) []core.LabeledPoint {
	t.Helper()
	ds, err := gen.DatasetByName(name)
	if err != nil {
		t.Fatal(err)
	}
	_, pts, _ := ds.Generate(gen.GenerateConfig{Points: n, Seed: seed})
	scores := make([]float64, len(pts))
	for i := range pts {
		scores[i] = pts[i].Metrics[0]
	}
	sort.Float64s(scores)
	cut := scores[int(float64(len(scores))*0.97)]
	labeled := make([]core.LabeledPoint, len(pts))
	for i := range pts {
		label := core.Inlier
		if pts[i].Metrics[0] > cut {
			label = core.Outlier
		}
		labeled[i] = core.LabeledPoint{Point: pts[i], Score: pts[i].Metrics[0], Label: label}
	}
	return labeled
}

// goldenFormat canonicalizes a ranked explanation set. Explanations are
// listed in a deterministic total order (risk ratio desc, support desc,
// item ids asc) and values are rounded to 6 significant digits so the
// format is robust to last-ulp float reassociation while still pinning
// the ranked content exactly.
func goldenFormat(exps []core.Explanation) string {
	type row struct {
		items string
		rr    float64
		sup   float64
	}
	rows := make([]row, 0, len(exps))
	for _, e := range exps {
		cp := append([]int32(nil), e.ItemIDs...)
		sort.Slice(cp, func(i, j int) bool { return cp[i] < cp[j] })
		parts := make([]string, len(cp))
		for i, id := range cp {
			parts[i] = fmt.Sprint(id)
		}
		rows = append(rows, row{items: strings.Join(parts, ","), rr: e.RiskRatio, sup: e.Support})
	}
	sort.Slice(rows, func(i, j int) bool {
		a, b := rows[i], rows[j]
		if a.rr != b.rr && !(math.IsInf(a.rr, 1) && math.IsInf(b.rr, 1)) {
			return a.rr > b.rr
		}
		if a.sup != b.sup {
			return a.sup > b.sup
		}
		return a.items < b.items
	})
	var sb strings.Builder
	for _, r := range rows {
		rr := "+Inf"
		if !math.IsInf(r.rr, 1) {
			rr = fmt.Sprintf("%.6g", r.rr)
		}
		fmt.Fprintf(&sb, "items=%s support=%.6g rr=%s\n", r.items, r.sup, rr)
	}
	return sb.String()
}

// shardOf assigns a labeled point to one of p shards by attribute-set
// hash, mirroring the sharded engine's partitioner shape (exact
// function is irrelevant; determinism within one process run is not —
// so the test uses a fixed FNV-style fold rather than maphash).
func shardOf(attrs []int32, p int) int {
	h := uint64(1469598103934665603)
	for _, a := range attrs {
		h ^= uint64(uint32(a))
		h *= 1099511628211
	}
	return int(h % uint64(p))
}

// goldenStreamingRun replays the workload and returns the cold
// (first, fully mined) and warm (repeated, cache-served) poll outputs.
// Mid-stream polls are issued along the way: the incremental mining
// cache must be side-effect-free, so a polled-while-running explainer
// still has to reproduce the committed golden files bit-for-bit.
func goldenStreamingRun(labeled []core.LabeledPoint, cfg StreamingConfig, decayEvery int) (cold, warm string) {
	s := NewStreaming(cfg)
	for i := 0; i < len(labeled); i += 500 {
		end := i + 500
		if end > len(labeled) {
			end = len(labeled)
		}
		s.Consume(labeled[i:end])
		if (i/500)%(decayEvery/500) == decayEvery/500-1 {
			s.Decay()
		}
		if (i/500)%7 == 3 {
			s.Explanations() // mid-stream poll: warms and invalidates the cache repeatedly
		}
	}
	return goldenFormat(s.Explanations()), goldenFormat(s.Explanations())
}

// goldenShardedRun partitions the stream across 3 explainers, decaying
// all shards on a shared clock, then reconciles via clone + merge —
// the same protocol the sharded engine's poll path uses. The cold
// output is a resident PollMerger's first merged poll (a full mine,
// identical to MergeStreaming by the differential tests); the warm
// output is the merger's second poll over fresh clones of unchanged
// shards, served from its cache; the shared output is a fresh merger's
// MergeShared poll over the same clones, the snapshot-elision path.
func goldenShardedRun(labeled []core.LabeledPoint, cfg StreamingConfig, decayEvery int) (cold, warm, shared string) {
	const p = 3
	shards := make([]*Streaming, p)
	bufs := make([][]core.LabeledPoint, p)
	for i := range shards {
		shards[i] = NewStreaming(cfg)
	}
	since := 0
	for i := range labeled {
		sh := shardOf(labeled[i].Attrs, p)
		bufs[sh] = append(bufs[sh], labeled[i])
		since++
		if since == decayEvery || i == len(labeled)-1 {
			for j := range shards {
				shards[j].Consume(bufs[j])
				bufs[j] = bufs[j][:0]
			}
			if since == decayEvery {
				for j := range shards {
					shards[j].Decay()
				}
				since = 0
			}
		}
	}
	merger := NewPollMerger()
	clones := func() []*Streaming {
		out := make([]*Streaming, p)
		for j := range shards {
			out[j] = shards[j].Clone()
		}
		return out
	}
	return goldenFormat(merger.Merge(clones())), goldenFormat(merger.Merge(clones())),
		goldenFormat(NewPollMerger().MergeShared(clones()))
}

func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden %s (run with -update-golden): %v", path, err)
	}
	if string(want) != got {
		t.Errorf("%s: ranked explanations diverged from golden\n--- want ---\n%s--- got ---\n%s", name, want, got)
	}
}

func TestGoldenStreamingExplanations(t *testing.T) {
	cfg := StreamingConfig{MinSupport: 0.005, MinRiskRatio: 1.2, DecayRate: 0.05, AMCSize: 1 << 20}
	for _, w := range []struct {
		name string
		n    int
		seed uint64
	}{{"CMT", 40_000, 17}, {"Liquor", 40_000, 23}} {
		labeled := goldenWorkload(t, w.name, w.n, w.seed)
		// Every poll parallelism must reproduce the same committed golden
		// file: the poll pipeline's output is W-invariant, and the
		// goldens were recorded on the historical serial path, which
		// the striped code reproduces bit-for-bit.
		for _, par := range []int{1, 2, 4} {
			wcfg := cfg
			wcfg.PollParallelism = par
			t.Run(fmt.Sprintf("%s/sequential/W%d", w.name, par), func(t *testing.T) {
				cold, warm := goldenStreamingRun(labeled, wcfg, 8000)
				checkGolden(t, "golden_"+w.name+"_seq.txt", cold)
				if warm != cold {
					t.Errorf("warm cached poll diverged from cold poll:\n--- cold ---\n%s--- warm ---\n%s", cold, warm)
				}
			})
			t.Run(fmt.Sprintf("%s/sharded/W%d", w.name, par), func(t *testing.T) {
				cold, warm, shared := goldenShardedRun(labeled, wcfg, 9000)
				checkGolden(t, "golden_"+w.name+"_sharded.txt", cold)
				if warm != cold {
					t.Errorf("warm cached poll diverged from cold poll:\n--- cold ---\n%s--- warm ---\n%s", cold, warm)
				}
				if shared != cold {
					t.Errorf("MergeShared poll diverged from cold poll:\n--- cold ---\n%s--- shared ---\n%s", cold, shared)
				}
			})
		}
	}
}
