package main

import (
	"bytes"
	"fmt"
	"io"
	"time"

	"macrobase/internal/core"
	"macrobase/internal/encode"
	"macrobase/internal/gen"
	"macrobase/internal/ingest"
)

// rowsPerPush is the number of MBR1 rows in one push request body.
const rowsPerPush = 1024

// workload is one traffic mix driven against mbserver.
type workload struct {
	name string
	// shards and partitions configure the /stream/start session.
	shards, partitions int
	// producers is the number of pushing connections. With openRate
	// zero they run a closed loop: each sends its next body when the
	// previous one returns.
	producers int
	// openRate, when positive, drives one producer in an open loop at
	// this many points per second.
	openRate float64
	// pollEvery paces the polls that producer 0 interleaves with its
	// pushes. Zero instead runs a separate closed-loop poller.
	pollEvery time.Duration
	// poolPoints is how many distinct points the producers cycle
	// through: the working set the explanation trees converge to.
	poolPoints int
	// warmupBodies are pushed, and consumed, before timing starts, so
	// the classifier has trained, the first decay tick has pruned the
	// trees and, with the whole pool pushed, the trees have stopped
	// growing.
	warmupBodies int
	// decayEvery is the session's decayEveryPoints (per shard).
	decayEvery int
	// uncoordinated turns off threshold coordination and rebalancing.
	// Both fire asynchronously with ingest; without them the labels,
	// and so the trees every poll merges, are a function of the stream
	// alone.
	uncoordinated bool
	// tracePollEvery is the traced replay's poll cadence in bodies.
	tracePollEvery int
	// start is the /stream/start body, minus input/shards/partitions.
	start map[string]any
}

var workloads = []workload{
	{
		name:   "firehose",
		shards: 2, partitions: 2, producers: 2,
		pollEvery:      200 * time.Millisecond,
		poolPoints:     1 << 19,
		warmupBodies:   128,
		decayEvery:     100_000,
		tracePollEvery: 1024,
		start: map[string]any{
			"metrics":    []string{"power"},
			"attributes": []string{"device_id"},
		},
	},
	{
		name:   "drift-poll",
		shards: 4, partitions: 1, producers: 1,
		openRate:       50_000,
		poolPoints:     1 << 18,
		warmupBodies:   256,
		decayEvery:     20_000,
		uncoordinated:  true,
		tracePollEvery: 16,
		start: map[string]any{
			"metrics":    []string{"sale_dollars"},
			"attributes": []string{"store", "item", "category", "vendor"},
			// One merge worker leaves the second core to ingest; the
			// merged answer is the same at any worker count.
			"pollParallelism": 1,
		},
	},
	{
		name:   "skew",
		shards: 2, partitions: 2, producers: 2,
		pollEvery:      200 * time.Millisecond,
		poolPoints:     1 << 19,
		warmupBodies:   128,
		decayEvery:     100_000,
		tracePollEvery: 1024,
		start: map[string]any{
			"metrics":    []string{"power"},
			"attributes": []string{"device_id"},
		},
	},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// inputs are a workload's pre-encoded request bodies and the ground
// truth the final answer is checked against.
type inputs struct {
	schema ingest.Schema
	// preamble, when non-nil, is pushed before timing starts.
	preamble       []byte
	preamblePoints int
	bodies         [][]byte
	// truthCol names the attribute column the planted anomaly lives
	// in; truth holds its anomalous values.
	truthCol string
	truth    map[string]bool
	// shard0Share is the fraction of pool points the generator's own
	// ids hash to shard 0 (skew only; checked by checkSkewPin).
	shard0Share float64
}

// buildInputs generates and encodes a workload's point pool from seed.
func buildInputs(w workload, seed uint64) (*inputs, error) {
	switch w.name {
	case "firehose":
		d := gen.Devices(gen.DeviceConfig{Points: w.poolPoints, Devices: 6400, Seed: seed})
		return devicesInputs(d, nil, 0), nil
	case "skew":
		d := gen.SkewedDevices(gen.SkewConfig{Points: w.poolPoints, PinShards: w.shards, Seed: seed})
		return devicesInputs(&d.DeviceData, d.AllDevices, w.shards), nil
	case "drift-poll":
		ds, err := gen.DatasetByName("Liquor")
		if err != nil {
			return nil, err
		}
		enc, pts, planted := ds.Generate(gen.GenerateConfig{Points: w.poolPoints, Seed: seed})
		in := &inputs{
			schema:   ingest.Schema{Metrics: []string{"sale_dollars"}, Attributes: []string{"store", "item", "category", "vendor"}},
			truthCol: "store",
			truth:    make(map[string]bool, len(planted)),
		}
		for _, id := range planted {
			in.truth[enc.Decode(id).Value] = true
		}
		in.bodies = encodeBodies(pts, enc)
		return in, nil
	}
	return nil, fmt.Errorf("unknown workload %q", w.name)
}

// devicesInputs encodes a device stream. With pinOrder set, a preamble
// introduces every device in the generator's id order, so mbserver's
// first-seen interning assigns the same ids and the generator's
// shard-0 engineering survives the wire.
func devicesInputs(d *gen.DeviceData, pinOrder []int32, shards int) *inputs {
	enc := d.Encoder
	in := &inputs{
		schema:   ingest.Schema{Metrics: []string{"power"}, Attributes: []string{"device_id"}},
		truthCol: "device_id",
		truth:    make(map[string]bool, len(d.OutlierDevices)),
	}
	for id := range d.OutlierDevices {
		in.truth[enc.Decode(id).Value] = true
	}
	if pinOrder != nil {
		pre := make([]core.Point, len(pinOrder))
		for i, id := range pinOrder {
			v := 10.0
			if d.OutlierDevices[id] {
				v = 70
			}
			pre[i] = core.Point{Metrics: []float64{v}, Attrs: []int32{id}}
		}
		in.preamble = encodeBodies(pre, enc)[0]
		in.preamblePoints = len(pre)
		on0 := 0
		for i := range d.Points {
			if core.HashPartition(&d.Points[i], shards) == 0 {
				on0++
			}
		}
		in.shard0Share = float64(on0) / float64(len(d.Points))
	}
	in.bodies = encodeBodies(d.Points, enc)
	return in
}

// encodeBodies writes pts as MBR1 bodies of rowsPerPush rows (the last
// may be short), keeping the first metric of each point.
func encodeBodies(pts []core.Point, enc *encode.Encoder) [][]byte {
	var bodies [][]byte
	var buf bytes.Buffer
	var w *ingest.BinaryRowWriter
	attrs := make([]string, 0, 8)
	for i := range pts {
		if i%rowsPerPush == 0 {
			if i > 0 {
				bodies = append(bodies, bytes.Clone(buf.Bytes()))
			}
			buf.Reset()
			w = ingest.NewBinaryRowWriter(&buf)
		}
		attrs = attrs[:0]
		for _, id := range pts[i].Attrs {
			attrs = append(attrs, enc.Decode(id).Value)
		}
		// Writes into a bytes.Buffer cannot fail.
		_ = w.WriteRowTimed(pts[i].Metrics[:1], attrs, 0, false)
	}
	if buf.Len() > 0 {
		bodies = append(bodies, bytes.Clone(buf.Bytes()))
	}
	return bodies
}

// checkSkewPin decodes the preamble and the pool through a fresh
// encoder, as mbserver does, and checks that the decoded ids put the
// same share of points on shard 0 as the generator's ids did, and more
// than the fair share.
func checkSkewPin(in *inputs, shards int) error {
	schema := in.schema
	enc := encode.NewEncoder(schema.Attributes...)
	r := ingest.NewBinaryRowReader(bytes.NewReader(in.preamble), schema, enc)
	b := core.NewBatch(rowsPerPush, len(schema.Metrics), len(schema.Attributes))
	if _, err := r.ReadInto(b, len(in.preamble)); err != io.EOF && err != nil {
		return fmt.Errorf("decoding preamble: %w", err)
	}
	total, on0 := 0, 0
	for _, body := range in.bodies {
		b.Reset()
		r.Reset(bytes.NewReader(body))
		if _, err := r.ReadInto(b, 2*rowsPerPush); err != io.EOF && err != nil {
			return fmt.Errorf("decoding body: %w", err)
		}
		pts := b.Points()
		for i := range pts {
			if core.HashPartition(&pts[i], shards) == 0 {
				on0++
			}
		}
		total += len(pts)
	}
	share := float64(on0) / float64(total)
	fair := 1 / float64(shards)
	if share != in.shard0Share || share < fair*1.2 {
		return fmt.Errorf("shard-0 share over the wire %.4f, generator %.4f, fair %.4f", share, in.shard0Share, fair)
	}
	return nil
}
