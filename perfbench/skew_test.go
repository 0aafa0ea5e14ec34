package main

import (
	"testing"

	"macrobase/internal/core"
)

// TestSkewHotSetSurvivesTheWire decodes the skew workload's preamble
// and pool through a fresh encoder, as mbserver does, and checks that
// the generator's shard-0 engineering survives first-seen interning.
func TestSkewHotSetSurvivesTheWire(t *testing.T) {
	w, err := workloadByName("skew")
	if err != nil {
		t.Fatal(err)
	}
	w.poolPoints = 1 << 15
	in, err := buildInputs(w, 7)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkSkewPin(in, w.shards); err != nil {
		t.Fatal(err)
	}
	if in.shard0Share < 0.6 {
		t.Fatalf("generator shard-0 share %.3f, want a pinned hot set", in.shard0Share)
	}

	// Without the preamble, mbserver would intern devices in pool
	// order and the hot set would scatter.
	in.preamble = nil
	if err := checkSkewPin(in, w.shards); err == nil {
		t.Fatal("pin check passed without the preamble")
	}
}

// TestAnswerF1 scores explanations on the ground-truth column only.
func TestAnswerF1(t *testing.T) {
	in := &inputs{truthCol: "store", truth: map[string]bool{"s1": true, "s2": true}}
	attr := func(col, val string) core.Attribute { return core.Attribute{Column: col, Value: val} }
	rep := &streamReply{Explanations: []explanationReply{
		{Attributes: []core.Attribute{attr("store", "s1")}},
		{Attributes: []core.Attribute{attr("store", "s1"), attr("item", "i9")}},
		{Attributes: []core.Attribute{attr("store", "s3")}},
		{Attributes: []core.Attribute{attr("item", "i4")}},
	}}
	// Stores named: s1 (true positive) and s3 (false positive); s2 is
	// missed. Precision 1/2, recall 1/2.
	if got := answerF1(rep, in); got != 0.5 {
		t.Fatalf("answerF1 = %v, want 0.5", got)
	}
	if got := answerF1(&streamReply{}, in); got != 0 {
		t.Fatalf("answerF1 of no explanations = %v, want 0", got)
	}
}
