// Command perfbench is the repository's end-to-end benchmark. It starts
// mbserver as a separate process on loopback, drives one workload
// against it through MBR1 pushes and live polls, checks the final
// answer, and prints every metric by name and unit. The last line of
// standard output is one JSON object:
//
//	{"correct":..., "attempted":..., "failed":..., "metrics":{name: {"value":..., "unit":...}}}
//
// With -trace 0 the metrics are the end-to-end ones. With -trace 1 they
// are the per-layer ones: counters from the end-to-end run's
// /stream/{id} JSON, and timings from an in-process, single-goroutine
// replay of the same bodies through each layer's entry points.
//
// Build and run it through run.sh, which builds mbserver first:
//
//	bash perfbench/run.sh --workload drift-poll --seed 3 --seconds 15 --trace 1
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"maps"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

func main() {
	name := flag.String("workload", "", "workload: firehose, drift-poll or skew")
	seed := flag.Uint64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 15, "measured duration in seconds")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run")
	bin := flag.String("server", "", "mbserver binary")
	out := flag.String("out", ".", "directory for span dumps")
	flag.Parse()
	if err := run(*name, *seed, *seconds, *trace == 1, *bin, *out); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// metric is one named measurement in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// replayBudget caps the traced replay's duration.
const replayBudget = 4 * time.Second

func run(name string, seed uint64, seconds float64, trace bool, bin, out string) error {
	w, err := workloadByName(name)
	if err != nil {
		return err
	}
	if bin == "" {
		return fmt.Errorf("-server is required")
	}
	fmt.Printf("workload %s seed %d seconds %g trace %v nproc %d GOMAXPROCS %d\n",
		w.name, seed, seconds, trace, runtime.NumCPU(), runtime.GOMAXPROCS(0))
	in, err := buildInputs(w, seed)
	if err != nil {
		return err
	}
	var pinErr error
	if in.preamble != nil {
		pinErr = checkSkewPin(in, w.shards)
	}
	res, err := runE2E(bin, w, in, seconds)
	if err != nil {
		return err
	}
	res.note(pinErr)
	for _, e := range res.errs {
		fmt.Println("check failed:", e)
	}

	bounded, wall := endToEnd(res)
	fmt.Println("end-to-end, bounded:")
	printMetrics(bounded)
	fmt.Println("end-to-end, wall-clock:")
	printMetrics(wall)
	m := bounded
	if trace {
		layers := map[string]metric{}
		if err := perLayer(layers, w, in, res, seconds, seed, out); err != nil {
			res.note(err)
			fmt.Println("check failed:", err)
		}
		fmt.Println("layers:")
		printMetrics(layers)
		m = wall
		maps.Copy(m, layers)
	}
	r := result{Correct: res.failed == 0, Attempted: res.attempted, Failed: res.failed, Metrics: m}
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !r.Correct {
		os.Exit(1)
	}
	return nil
}

// endToEnd returns the user-visible metrics in two sets. bounded holds
// the ones that stay steady from run to run on a shared machine:
// server CPU efficiency, memory and answer quality, plus set-up time.
// Wall-clock rates and latencies move with the CPU time other guests
// steal from the machine (printed with every run), so they are
// reported, under an "e2e." prefix, with the unbounded layer metrics.
func endToEnd(r *e2eResult) (bounded, wall map[string]metric) {
	bounded = map[string]metric{
		"setup_s":       {median(r.setupS), "s"},
		"pts_per_cpu_s": {float64(r.timed) / r.cpuS, "1/s"},
		"rss_peak_mb":   {r.rssMB, "MiB"},
		"answer_f1":     {r.f1, "ratio"},
	}
	wall = map[string]metric{
		"e2e.ingest_pts_per_s": {float64(r.timed) / r.wallS, "1/s"},
		"e2e.push_p50_ms":      {quantile(r.pushMs, 0.5), "ms"},
		"e2e.push_p99_ms":      {quantile(r.pushMs, 0.99), "ms"},
		"e2e.poll_p50_ms":      {quantile(r.pollMs, 0.5), "ms"},
		"e2e.poll_p90_ms":      {quantile(r.pollMs, 0.9), "ms"},
		"e2e.fresh_p50_ms":     {quantile(r.freshMs, 0.5), "ms"},
		"e2e.fresh_p90_ms":     {quantile(r.freshMs, 0.9), "ms"},
		"e2e.failed_frac":      {ratio(float64(r.failed), float64(r.attempted)), "ratio"},
		"e2e.steal_frac":       {r.stealFrac, "ratio"},
	}
	fmt.Printf("samples: push %d poll %d fresh %d; %d points after warm-up in %.3f s, server cpu %.2f s\n",
		len(r.pushMs), len(r.pollMs), len(r.freshMs), r.timed, r.wallS, r.cpuS)
	fmt.Printf("set-up rounds (s): %.4f\n", r.setupS)
	fmt.Printf("operations: %d attempted, %d failed\n", r.attempted, r.failed)
	return bounded, wall
}

// perLayer fills the layer metrics: counters from the end-to-end run's
// final JSON and timings from a traced replay. The replay runs twice
// over the same bodies, with spans on and off, to measure the tracing
// overhead.
func perLayer(m map[string]metric, w workload, in *inputs, r *e2eResult, seconds float64, seed uint64, out string) error {
	f := r.final
	if f == nil {
		return fmt.Errorf("no final result to read layer counters from")
	}
	var blocked, batches int64
	for _, p := range f.Ingest {
		blocked += p.BlockedNanos
		batches += p.Batches
	}
	m["ingest.send_blocked_frac"] = metric{float64(blocked) / 1e9 / (float64(r.partitions) * r.sessionS), "ratio"}
	m["ingest.batches"] = metric{float64(batches), "count"}
	if sb := f.Shards; sb != nil {
		m["core.imbalance"] = metric{sb.Imbalance, "ratio"}
		m["core.bucket_moves"] = metric{float64(sb.BucketMoves), "count"}
		m["core.routing_epoch"] = metric{float64(sb.RoutingEpoch), "count"}
		m["core.coord_rounds"] = metric{float64(sb.CoordRounds), "count"}
	}
	m["classify.outlier_rate"] = metric{ratio(float64(f.Outliers), float64(f.Points)), "ratio"}
	c := f.Cache
	m["explain.full_hits"] = metric{float64(c.FullHits), "count"}
	m["explain.mine_reuses"] = metric{float64(c.MineReuses), "count"}
	m["explain.full_mines"] = metric{float64(c.FullMines), "count"}
	m["explain.delta_mines"] = metric{float64(c.DeltaMines), "count"}
	m["explain.journal_overflows"] = metric{float64(c.JournalOverflows), "count"}
	m["explain.early_exits"] = metric{float64(c.EarlyExits), "count"}
	m["explain.snapshots_elided"] = metric{float64(c.SnapshotsElided), "count"}
	m["explain.reuse_ratio"] = metric{ratio(float64(c.FullHits+c.MineReuses+c.DeltaMines), float64(r.served)), "ratio"}
	m["gen.late_p99_ms"] = metric{quantile(r.lateMs, 0.99), "ms"}

	// The traced replay runs for a third of the measured duration, at
	// most replayBudget; the untraced one repeats the same bodies.
	budget := min(time.Duration(seconds/3*float64(time.Second)), replayBudget)
	tr := newTracer(true)
	t0 := time.Now()
	st, n, err := replay(tr, in, w, 0, budget)
	if err != nil {
		return err
	}
	traced := time.Since(t0).Seconds()
	t0 = time.Now()
	if _, _, err := replay(newTracer(false), in, w, n, 0); err != nil {
		return err
	}
	plain := time.Since(t0).Seconds()

	lt := tr.summarize()
	pts := float64(st.points)
	nsPerPt := func(name string) float64 { return float64(lt[name].total) / pts }
	perCall := func(name string, unit time.Duration) float64 {
		return ratio(float64(lt[name].total)/float64(unit), float64(lt[name].count))
	}
	perPoll := func(name string) float64 { return ratio(float64(lt[name].total)/1e6, float64(st.polls)) }
	m["ingest.decode_ns_per_pt"] = metric{nsPerPt("ingest.decode"), "ns"}
	m["core.route_ns_per_pt"] = metric{nsPerPt("core.route"), "ns"}
	m["core.coord_round_us"] = metric{perCall("core.coord", time.Microsecond), "us"}
	m["classify.ns_per_pt"] = metric{nsPerPt("classify.classify"), "ns"}
	m["classify.batch_max_ms"] = metric{float64(lt["classify.classify"].max) / 1e6, "ms"}
	m["explain.consume_ns_per_pt"] = metric{nsPerPt("explain.consume"), "ns"}
	m["explain.decay_ms"] = metric{perCall("explain.decay", time.Millisecond), "ms"}
	m["explain.snapshot_ms"] = metric{perPoll("explain.snapshot"), "ms"}
	m["explain.merge_ms"] = metric{perPoll("explain.merge"), "ms"}
	m["explain.explain_ms"] = metric{perPoll("explain.explain"), "ms"}
	m["explain.pollmerger_ms"] = metric{perPoll("explain.pollmerger"), "ms"}
	m["trace.staged_pts_per_s"] = metric{pts / plain, "1/s"}
	m["trace.overhead_frac"] = metric{(traced - plain) / plain, "ratio"}

	fmt.Printf("traced replay: %d bodies, %d points, %d polls, %d spans; %.3f s traced, %.3f s untraced\n",
		n, st.points, st.polls, len(tr.spans), traced, plain)
	names := make([]string, 0, len(lt))
	for k := range lt {
		names = append(names, k)
	}
	sort.Strings(names)
	fmt.Printf("%-22s %8s %12s %12s %8s\n", "span", "count", "total_ms", "self_ms", "self%")
	for _, k := range names {
		l := lt[k]
		fmt.Printf("%-22s %8d %12.3f %12.3f %7.2f%%\n", k, l.count, float64(l.total)/1e6, float64(l.self)/1e6, 100*float64(l.self)/(traced*1e9))
	}
	path := filepath.Join(out, fmt.Sprintf("spans-%s-seed%d.tsv", w.name, seed))
	if err := tr.write(path); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	fmt.Println("spans written to", path)
	return nil
}

func printMetrics(m map[string]metric) {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("%-28s %16.6g %s\n", k, m[k].Value, m[k].Unit)
	}
}

// quantile is the linear-interpolation q-quantile of xs (NaN if empty).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
