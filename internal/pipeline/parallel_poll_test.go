package pipeline

import (
	"context"
	"reflect"
	"sync"
	"testing"
	"time"

	"macrobase/internal/core"
	"macrobase/internal/gen"
	"macrobase/internal/ingest"
)

// TestPollBypassWhileMergeHeld pins the contended-poll latency fix: a
// poller arriving while another poll holds the merge lock must not
// queue behind it — it takes the bypass path (hint-less snapshot +
// lock-free merge over owned clones) and returns promptly. Before the
// mineMu/pollMu split, every poller serialized on one mutex held
// across the whole merge+mine, so a single slow mine stalled all of
// them.
func TestPollBypassWhileMergeHeld(t *testing.T) {
	d := gen.Devices(gen.DeviceConfig{Points: 30_000, Devices: 200, Seed: 7})
	i := 0
	src := core.NewFuncSource(1024, func(dst []core.Point) int {
		for j := range dst {
			dst[j] = d.Points[i%len(d.Points)]
			i++
		}
		return len(dst)
	})
	cfg := Config{Dims: 1, MinSupport: 0.005, DecayEveryPoints: 8_000, Seed: 3}
	sess, err := StartShardedStream(src, cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Warm up until the stream has outliers to explain.
	for {
		res, err := sess.Poll()
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Explanations) > 0 {
			break
		}
	}

	// Simulate a poll stalled mid-merge by holding the merge lock
	// directly. The concurrent poll below must still be served, via the
	// bypass path, well inside the deadline.
	sess.mineMu.Lock()
	type polled struct {
		res *ShardedResult
		err error
	}
	done := make(chan polled, 1)
	go func() {
		res, err := sess.Poll()
		done <- polled{res, err}
	}()
	select {
	case p := <-done:
		sess.mineMu.Unlock()
		if p.err != nil {
			t.Fatal(p.err)
		}
		if len(p.res.Explanations) == 0 {
			t.Error("bypass poll served no explanations on a warmed stream")
		}
	case <-time.After(20 * time.Second):
		sess.mineMu.Unlock()
		t.Fatal("poll queued behind the held merge lock; bypass path did not serve")
	}
	if _, err := sess.Stop(); err != nil {
		t.Fatal(err)
	}
}

// TestParallelPollHammerWithRebalance is the -race exerciser for the
// parallel poll pipeline: PollParallelism 4 polls (parallel mines,
// parallel recounts and inlier counts) racing each other and live ingest
// with rebalancing enabled, so worker goroutines run against shard
// clones taken mid-epoch-swap. Correctness here is "no race, no torn
// result, coherent final answer"; determinism across W is pinned by
// the explain-level differential and golden tests.
func TestParallelPollHammerWithRebalance(t *testing.T) {
	const nParts, shards = 3, 4
	d := gen.SkewedDevices(gen.SkewConfig{Points: 120_000, PinShards: shards, Seed: 53})
	cfg := skewedConfig(len(d.Points))
	cfg.CoordinateEvery = 1_000
	cfg.BatchSize = 512
	cfg.PollParallelism = 4
	_, batched := splitParts(d.Points, nParts, cfg.BatchSize)

	p := ingest.NewPush(nParts, 4)
	sess, err := StartPartitionedStream(p, cfg, shards)
	if err != nil {
		t.Fatal(err)
	}
	feedPush(t, p, batched)

	stopPoll := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stopPoll:
					return
				default:
				}
				res, err := sess.Poll()
				if err != nil {
					t.Error(err)
					return
				}
				// Torn-result check: one poll's explanations all come
				// from the same merged snapshot set.
				for i := 1; i < len(res.Explanations); i++ {
					if res.Explanations[i].TotalOutliers != res.Explanations[0].TotalOutliers ||
						res.Explanations[i].TotalInliers != res.Explanations[0].TotalInliers {
						t.Error("torn poll: explanations mix class totals from different merges")
						return
					}
				}
			}
		}()
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		res, err := sess.Poll()
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.Points >= len(d.Points)/4 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("stream made no progress")
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	final, err := sess.StopContext(ctx)
	cancel()
	close(stopPoll)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if final == nil || len(final.Explanations) == 0 {
		t.Fatal("no final explanations")
	}
	// The final reconciliation runs through the same parallel merge; a
	// second stop-side poll must reproduce it exactly.
	again, err := sess.Poll()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(again.Explanations, final.Explanations) {
		t.Error("post-stop poll diverged from final result")
	}
}
