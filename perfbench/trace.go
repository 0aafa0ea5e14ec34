package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os"
	"time"

	"macrobase/internal/classify"
	"macrobase/internal/core"
	"macrobase/internal/encode"
	"macrobase/internal/explain"
	"macrobase/internal/ingest"
)

// The traced run replays a workload's bodies in one goroutine through
// each layer's exported entry points, with the pipeline defaults
// mbserver runs under. It mirrors a shard worker's batch loop and the
// sharded session's coordination rounds and merged polls, except that
// the routing table stays the identity (no rebalancing) and the merge
// runs on one worker.
const (
	percentile      = 0.99
	decayRate       = 0.01
	reservoirSize   = 10_000
	amcSize         = 10_000
	retrainEvery    = 100_000
	coordinateEvery = 25_000
	minSupport      = 0.001
	minRiskRatio    = 3
)

// span is one timed call: name, start and end in nanoseconds since the
// tracer's origin, and the index of the enclosing span (-1 at the root).
type span struct {
	name       string
	start, end int64
	parent     int32
}

// tracer keeps spans in memory. Disabled, begin and end do nothing,
// which is what the overhead comparison runs.
type tracer struct {
	on    bool
	t0    time.Time
	spans []span
	cur   int32
}

func newTracer(on bool) *tracer { return &tracer{on: on, t0: time.Now(), cur: -1} }

func (t *tracer) begin(name string) int32 {
	if !t.on {
		return -1
	}
	t.spans = append(t.spans, span{name: name, start: time.Since(t.t0).Nanoseconds(), parent: t.cur})
	t.cur = int32(len(t.spans) - 1)
	return t.cur
}

func (t *tracer) end(i int32) {
	if !t.on {
		return
	}
	t.spans[i].end = time.Since(t.t0).Nanoseconds()
	t.cur = t.spans[i].parent
}

// layerTime aggregates the spans of one name.
type layerTime struct {
	count       int
	total, self int64
	max         int64
}

// summarize totals each span name's duration and self time (duration
// minus the time its children cover; spans of one goroutine nest, so
// children never overlap).
func (t *tracer) summarize() map[string]layerTime {
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.parent >= 0 {
			child[s.parent] += s.end - s.start
		}
	}
	out := map[string]layerTime{}
	for i, s := range t.spans {
		lt := out[s.name]
		d := s.end - s.start
		lt.count++
		lt.total += d
		lt.self += d - child[i]
		lt.max = max(lt.max, d)
		out[s.name] = lt
	}
	return out
}

// write dumps the spans as tab-separated name, start, end, parent.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "name\tstart_ns\tend_ns\tparent")
	for _, s := range t.spans {
		fmt.Fprintf(w, "%s\t%d\t%d\t%d\n", s.name, s.start, s.end, s.parent)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// stage is the single-goroutine replay of a P-shard session.
type stage struct {
	tr         *tracer
	shards     int
	decayEvery int
	coordinate bool
	buckets    int
	reader     *ingest.BinaryRowReader
	batch      *core.Batch
	sub        []*core.Batch
	labels     []core.LabeledPoint
	cls        []*classify.Streaming
	exp        []*explain.Streaming
	since      []int
	coordAt    int
	sums       []classify.ScoreSummary
	merger     classify.ScoreSummaryMerger
	pm         *explain.PollMerger
	snaps      []*explain.Streaming
	points     int
	polls      int
}

func newStage(tr *tracer, schema ingest.Schema, w workload) *stage {
	shards := w.shards
	st := &stage{
		tr:         tr,
		shards:     shards,
		decayEvery: w.decayEvery,
		coordinate: !w.uncoordinated,
		buckets:    core.DefaultRoutingBuckets,
		batch:      core.NewBatch(rowsPerPush, 1, len(schema.Attributes)),
		since:      make([]int, shards),
		sums:       make([]classify.ScoreSummary, shards),
		pm:         explain.NewPollMerger(),
		snaps:      make([]*explain.Streaming, shards),
	}
	// mbserver rounds the bucket count up to a multiple of P.
	if r := st.buckets % shards; r != 0 {
		st.buckets += shards - r
	}
	st.reader = ingest.NewBinaryRowReader(bytes.NewReader(nil), schema, encode.NewEncoder(schema.Attributes...))
	for s := 0; s < shards; s++ {
		st.sub = append(st.sub, core.NewBatch(rowsPerPush, 1, len(schema.Attributes)))
		// Coordinated sessions stagger the shards' retrains.
		offset := 0
		if st.coordinate {
			offset = s * (retrainEvery / shards)
		}
		st.cls = append(st.cls, classify.NewStreaming(classify.StreamingConfig{
			Dims:               1,
			ReservoirSize:      reservoirSize,
			ScoreReservoirSize: reservoirSize,
			DecayRate:          decayRate,
			Percentile:         percentile,
			RetrainEvery:       retrainEvery,
			RetrainOffset:      offset,
			Seed:               uint64(s) * 7919,
		}, nil))
		st.exp = append(st.exp, explain.NewStreaming(explain.StreamingConfig{
			MinSupport:      minSupport,
			MinRiskRatio:    minRiskRatio,
			DecayRate:       decayRate,
			AMCSize:         amcSize,
			PollParallelism: 1,
		}))
	}
	return st
}

// push replays one request body: decode, route, then per shard
// classify, consume and decay, then a coordination round when due.
func (st *stage) push(body []byte) error {
	tr := st.tr
	root := tr.begin("replay.push")
	defer tr.end(root)

	sp := tr.begin("ingest.decode")
	st.batch.Reset()
	st.reader.Reset(bytes.NewReader(body))
	_, err := st.reader.ReadInto(st.batch, 2*rowsPerPush)
	tr.end(sp)
	if err != nil && err != io.EOF {
		return fmt.Errorf("decoding body: %w", err)
	}
	pts := st.batch.Points()
	st.points += len(pts)

	sp = tr.begin("core.route")
	for _, b := range st.sub {
		b.Reset()
	}
	for i := range pts {
		// The identity bucket table maps bucket b to shard b mod P.
		s := core.HashBucket(&pts[i], st.buckets) % st.shards
		st.sub[s].AppendPoint(&pts[i])
	}
	tr.end(sp)

	for s, b := range st.sub {
		sp := b.Points()
		if len(sp) == 0 {
			continue
		}
		c := tr.begin("classify.classify")
		st.labels = st.cls[s].ClassifyBatch(st.labels[:0], sp)
		tr.end(c)
		c = tr.begin("explain.consume")
		st.exp[s].Consume(st.labels)
		tr.end(c)
		st.since[s] += len(sp)
		for st.since[s] >= st.decayEvery {
			st.since[s] -= st.decayEvery
			c = tr.begin("classify.decay")
			st.cls[s].Decay()
			tr.end(c)
			c = tr.begin("explain.decay")
			st.exp[s].Decay()
			tr.end(c)
		}
	}

	if st.coordinate && st.points-st.coordAt >= coordinateEvery {
		st.coordAt = st.points
		round := tr.begin("core.coord")
		for s, c := range st.cls {
			sp := tr.begin("classify.summary")
			st.sums[s] = c.ScoreQuantileSummary(st.sums[s].Scores)
			tr.end(sp)
		}
		sp := tr.begin("classify.merge")
		cut, ok := st.merger.Merge(st.sums, percentile)
		tr.end(sp)
		if ok {
			for _, c := range st.cls {
				c.SetGlobalThreshold(cut)
			}
		}
		tr.end(round)
	}
	return nil
}

// poll replays one merged poll twice: once by hand (snapshot, clone and
// merge, explain) to attribute its time, once through PollMerger as
// mbserver serves it.
func (st *stage) poll() int {
	tr := st.tr
	root := tr.begin("replay.poll")
	defer tr.end(root)
	st.polls++
	sp := tr.begin("explain.snapshot")
	for s, e := range st.exp {
		st.snaps[s] = e.SnapshotClone()
	}
	tr.end(sp)
	sp = tr.begin("explain.merge")
	m := st.snaps[0].Clone()
	for _, o := range st.snaps[1:] {
		m.Merge(o)
	}
	tr.end(sp)
	sp = tr.begin("explain.explain")
	n := len(m.Explanations())
	tr.end(sp)
	sp = tr.begin("explain.pollmerger")
	if k := len(st.pm.MergeShared(st.snaps)); k != n {
		n = -1
	}
	tr.end(sp)
	return n
}

// replay runs bodies through a fresh stage, polling every pollEvery
// bodies, until limit bodies or the budget runs out (limit <= 0 means
// no limit). It returns the stage and the number of bodies replayed.
func replay(tr *tracer, in *inputs, w workload, limit int, budget time.Duration) (*stage, int, error) {
	st := newStage(tr, in.schema, w)
	deadline := time.Now().Add(budget)
	if in.preamble != nil {
		if err := st.push(in.preamble); err != nil {
			return nil, 0, err
		}
	}
	k := 0
	for ; limit <= 0 || k < limit; k++ {
		if limit <= 0 && !time.Now().Before(deadline) {
			break
		}
		if err := st.push(in.bodies[k%len(in.bodies)]); err != nil {
			return nil, 0, err
		}
		if (k+1)%w.tracePollEvery == 0 {
			if st.poll() < 0 {
				return nil, 0, fmt.Errorf("PollMerger and hand merge disagree on the explanation count")
			}
		}
	}
	return st, k, nil
}
