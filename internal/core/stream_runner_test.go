package core

import (
	"errors"
	"sync"
	"testing"
	"time"
)

// shardCollectExplainer records consumed outlier/inlier counts and
// supports snapshot cloning.
type shardCollectExplainer struct {
	consumed int
	outliers int
	decays   int
}

func (e *shardCollectExplainer) Consume(batch []LabeledPoint) {
	e.consumed += len(batch)
	for i := range batch {
		if batch[i].Label == Outlier {
			e.outliers++
		}
	}
}
func (e *shardCollectExplainer) Explanations() []Explanation { return nil }
func (e *shardCollectExplainer) Decay()                      { e.decays++ }

func streamPoints(n int) []Point {
	pts := make([]Point, n)
	for i := range pts {
		pts[i] = Point{
			Metrics: []float64{float64(i % 100)},
			Attrs:   []int32{int32(i % 17)},
			Time:    float64(i),
		}
	}
	return pts
}

// TestStreamRunnerSingleShardMatchesRunner drives the same source,
// classifier logic, and decay policy through Runner and a one-shard
// StreamRunner and requires identical statistics.
func TestStreamRunnerSingleShardMatchesRunner(t *testing.T) {
	pts := streamPoints(10_000)

	seqCls := &thresholdClassifier{cut: 50}
	seqExp := &collectExplainer{}
	r := Runner{
		Source:     NewSliceSource(pts),
		Classifier: seqCls,
		Explainer:  seqExp,
		BatchSize:  512,
		Decay:      DecayPolicy{EveryPoints: 1000},
	}
	seqStats, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}

	shCls := &thresholdClassifier{cut: 50}
	shExp := &shardCollectExplainer{}
	sr := StreamRunner{
		Source: NewSliceSource(pts),
		Shards: 1,
		NewShard: func(shard int) ShardPipeline {
			return ShardPipeline{Classifier: shCls, Explainer: shExp}
		},
		BatchSize: 512,
		Decay:     DecayPolicy{EveryPoints: 1000},
	}
	stats, err := sr.Run()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Points != seqStats.Points || stats.OutPoints != seqStats.OutPoints ||
		stats.Outliers != seqStats.Outliers || stats.DecayTicks != seqStats.DecayTicks {
		t.Errorf("sharded stats %+v != sequential %+v", stats.RunStats, seqStats)
	}
	if shCls.decays != seqCls.decays {
		t.Errorf("classifier decays %d != %d", shCls.decays, seqCls.decays)
	}
	if shExp.consumed != seqExp.n {
		t.Errorf("explainer consumed %d != %d", shExp.consumed, seqExp.n)
	}
}

// TestStreamRunnerPartitionsByAttribute checks every point lands on
// the shard its attribute hash selects, with no loss or duplication.
func TestStreamRunnerPartitionsByAttribute(t *testing.T) {
	const shards = 4
	pts := streamPoints(20_000)
	var mu sync.Mutex
	perShardAttrs := make([]map[int32]int, shards)
	explainers := make([]*shardCollectExplainer, shards)
	sr := StreamRunner{
		Source: NewSliceSource(pts),
		Shards: shards,
		NewShard: func(shard int) ShardPipeline {
			explainers[shard] = &shardCollectExplainer{}
			perShardAttrs[shard] = make(map[int32]int)
			return ShardPipeline{Classifier: &thresholdClassifier{cut: 50}, Explainer: explainers[shard]}
		},
		BatchSize: 256,
		OnBatch: func(shard int, batch []LabeledPoint) {
			mu.Lock()
			for i := range batch {
				perShardAttrs[shard][batch[i].Attrs[0]]++
			}
			mu.Unlock()
		},
	}
	stats, err := sr.Run()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Points != len(pts) || stats.OutPoints != len(pts) {
		t.Fatalf("points %d out %d, want %d", stats.Points, stats.OutPoints, len(pts))
	}
	total := 0
	for shard, attrs := range perShardAttrs {
		for a, n := range attrs {
			total += n
			if want := HashPartition(&Point{Attrs: []int32{a}}, shards); want != shard {
				t.Errorf("attr %d seen on shard %d, hash routes to %d", a, shard, want)
			}
		}
	}
	if total != len(pts) {
		t.Errorf("observed %d points across shards, want %d", total, len(pts))
	}
	sum := 0
	for _, s := range stats.PerShard {
		sum += s.Points
	}
	if sum != len(pts) {
		t.Errorf("per-shard points sum %d != %d", sum, len(pts))
	}
}

// TestStreamRunnerSnapshotAndStop exercises the snapshot protocol and
// RequestStop concurrently with the run.
func TestStreamRunnerSnapshotAndStop(t *testing.T) {
	// Unbounded source: forces termination through RequestStop.
	src := NewFuncSource(512, func(dst []Point) int {
		for i := range dst {
			dst[i] = Point{Metrics: []float64{1}, Attrs: []int32{int32(i % 5)}}
		}
		return len(dst)
	})
	sr := StreamRunner{
		Source: src,
		Shards: 2,
		NewShard: func(shard int) ShardPipeline {
			return ShardPipeline{Classifier: &thresholdClassifier{cut: 50}, Explainer: &shardCollectExplainer{}}
		},
		SnapshotShard: func(shard int, pl ShardPipeline, hint any) any {
			return pl.Explainer.(*shardCollectExplainer).consumed
		},
		BatchSize: 512,
	}

	done := make(chan error, 1)
	var stats StreamStats
	go func() {
		var err error
		stats, err = sr.Run()
		done <- err
	}()

	// Poll snapshots while the stream runs, until they show consumed
	// points: RequestStop cancels in-flight sends, so a stop issued
	// before the first delivery would end the run empty.
	polled, consumed := 0, 0
	for polled < 3 || consumed == 0 {
		snaps, err := sr.Snapshot(nil)
		if errors.Is(err, ErrNotStreaming) {
			continue // run not yet started
		}
		if err != nil {
			t.Fatal(err)
		}
		if len(snaps) != 2 {
			t.Fatalf("snapshot count %d", len(snaps))
		}
		polled++
		consumed = snaps[0].(int) + snaps[1].(int)
	}
	sr.RequestStop()
	if err := <-done; !errors.Is(err, ErrStopped) {
		t.Fatalf("want ErrStopped, got %v", err)
	}
	if stats.Points == 0 || stats.OutPoints != stats.Points {
		t.Errorf("stats after stop: %+v", stats.RunStats)
	}
	// After completion, snapshots report not-streaming.
	if _, err := sr.Snapshot(nil); !errors.Is(err, ErrNotStreaming) {
		t.Errorf("want ErrNotStreaming after run, got %v", err)
	}
}

// TestStreamRunnerValidation covers required-field errors.
func TestStreamRunnerValidation(t *testing.T) {
	if _, err := (&StreamRunner{}).Run(); err == nil {
		t.Error("missing source not rejected")
	}
	if _, err := (&StreamRunner{Source: NewSliceSource(nil)}).Run(); err == nil {
		t.Error("missing NewShard not rejected")
	}
	sr := &StreamRunner{Source: NewSliceSource(nil), NewShard: func(int) ShardPipeline { return ShardPipeline{} }}
	if _, err := sr.Run(); err != nil {
		t.Errorf("empty stream should succeed, got %v", err)
	}
	if _, err := sr.Snapshot(nil); err == nil {
		t.Error("snapshot without hook not rejected")
	}
}

// TestHashPartitionStableAndInRange sanity-checks the default router.
func TestHashPartitionStableAndInRange(t *testing.T) {
	for shards := 1; shards <= 8; shards++ {
		counts := make([]int, shards)
		for a := int32(0); a < 1000; a++ {
			p := Point{Attrs: []int32{a}}
			s1 := HashPartition(&p, shards)
			s2 := HashPartition(&p, shards)
			if s1 != s2 {
				t.Fatalf("unstable hash for attr %d", a)
			}
			if s1 < 0 || s1 >= shards {
				t.Fatalf("shard %d out of range", s1)
			}
			counts[s1]++
		}
		if shards > 1 {
			for s, n := range counts {
				if n == 0 {
					t.Errorf("shards=%d: shard %d received nothing", shards, s)
				}
			}
		}
	}
	if s := HashPartition(&Point{}, 8); s != 0 {
		t.Errorf("attribute-less point routed to %d, want 0", s)
	}
}

// gateClassifier labels every point an inlier, but each call first
// blocks until gate closes; entered closes on the first call. Shared
// across shards, it holds every worker on its first batch so the
// bounded shard queues fill and ingest blocks in send.
type gateClassifier struct {
	once    sync.Once
	entered chan struct{}
	gate    chan struct{}
}

func (c *gateClassifier) ClassifyBatch(dst []LabeledPoint, batch []Point) []LabeledPoint {
	c.once.Do(func() { close(c.entered) })
	<-c.gate
	for i := range batch {
		dst = append(dst, LabeledPoint{Point: batch[i], Label: Inlier})
	}
	return dst
}

// TestStreamRunnerPointsCountDeliveredOnly: a stop that cancels ingest
// while it is blocked in a send must not count the undelivered points.
// Points has to equal what the shards consumed plus what quarantined
// shards dropped, on the scatter path and on the slab-native path with
// one shard (pointer handoff) and several (sub-batch fan-out).
func TestStreamRunnerPointsCountDeliveredOnly(t *testing.T) {
	for _, tc := range []struct {
		name   string
		shards int
		native bool
	}{
		{"scatter/2shards", 2, false},
		{"native/1shard", 1, true},
		{"native/3shards", 3, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cls := &gateClassifier{entered: make(chan struct{}), gate: make(chan struct{})}
			sr := StreamRunner{
				Shards: tc.shards,
				NewShard: func(shard int) ShardPipeline {
					return ShardPipeline{Classifier: cls, Explainer: &shardCollectExplainer{}}
				},
				BatchSize:  64,
				QueueDepth: 1,
			}
			if tc.native {
				sr.Partitioned = &aliasSource{parts: []*aliasPartition{{total: 1 << 30, chunk: 64}}}
			} else {
				sr.Source = NewFuncSource(64, func(dst []Point) int {
					for i := range dst {
						dst[i] = Point{Metrics: []float64{1}, Attrs: []int32{int32(i % 17)}}
					}
					return len(dst)
				})
			}
			done := make(chan error, 1)
			var stats StreamStats
			go func() {
				var err error
				stats, err = sr.Run()
				done <- err
			}()
			<-cls.entered
			// Give ingest time to fill every shard queue and block in send,
			// so the stop below cancels a send rather than a read.
			time.Sleep(10 * time.Millisecond)
			sr.RequestStop()
			close(cls.gate)
			if err := <-done; !errors.Is(err, ErrStopped) {
				t.Fatalf("want ErrStopped, got %v", err)
			}
			sum := 0
			for _, ps := range stats.PerShard {
				sum += ps.Points
			}
			for _, f := range stats.ShardFailures {
				sum += int(f.DroppedPoints)
			}
			if stats.Points == 0 || stats.Points != sum {
				t.Fatalf("Points = %d, per-shard + dropped = %d (per shard %+v)", stats.Points, sum, stats.PerShard)
			}
		})
	}
}
