package main

import (
	"bytes"
	"testing"

	"gpm"
)

func streamBytes(t *testing.T, wl *workload, seed int64, ops int) []byte {
	t.Helper()
	in := makeInputs(wl, seed)
	var buf bytes.Buffer
	if err := in.graph.Write(&buf); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < ops; i++ {
		_, ups := in.stream.take()
		if err := gpm.WriteUpdates(&buf, ups); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

func TestSameSeedSameInputs(t *testing.T) {
	for _, wl := range workloads {
		a, b := streamBytes(t, wl, 7, 40), streamBytes(t, wl, 7, 40)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: the same seed gave different inputs", wl.name)
		}
		if c := streamBytes(t, wl, 8, 40); bytes.Equal(a, c) {
			t.Errorf("%s: another seed gave the same inputs", wl.name)
		}
	}
}

// Every op must be valid against the state the ops before it leave (no
// operation of a workload may fail or be a no-op, save the deliberate
// churn pair), keep |E| where it was (to within a few edges between the
// chunks of generator.Updates, exactly with the cooldown generator), and
// respect the cooldown that makes the result independent of the order
// concurrent callers commit in.
func TestStreamOpsAreValidBalancedAndCooledDown(t *testing.T) {
	for _, wl := range workloads {
		in := makeInputs(wl, 3)
		g := in.graph.Clone()
		edges := g.NumEdges()
		last := map[[2]int]int{}
		churn := 0
		for i := 0; i < 60; i++ {
			idx, ups := in.stream.take()
			if idx != i || len(ups) != wl.size.Batch {
				t.Fatalf("%s: op %d has index %d and %d updates, want %d", wl.name, i, idx, len(ups), wl.size.Batch)
			}
			for j, up := range ups {
				e := [2]int{up.From, up.To}
				isChurn := wl.size.ChurnEvery > 0 && i%wl.size.ChurnEvery == 0 && j < 2
				if at, seen := last[e]; seen && !(isChurn && j == 1) && i-at <= wl.size.Cooldown {
					t.Fatalf("%s: op %d touches %v again %d ops after op %d", wl.name, i, e, i-at, at)
				}
				last[e] = i
				changed, err := g.Apply(up)
				if err != nil || !changed {
					t.Fatalf("%s: op %d update %v: changed=%v err=%v", wl.name, i, up, changed, err)
				}
				if isChurn {
					churn++
				}
			}
			slack := 0
			if wl.size.Writers == 1 {
				slack = edges / 100
			}
			if d := g.NumEdges() - edges; d < -slack || d > slack {
				t.Fatalf("%s: op %d moved |E| from %d to %d", wl.name, i, edges, g.NumEdges())
			}
		}
		if wl.size.ChurnEvery > 0 && churn == 0 {
			t.Errorf("%s: no churn pair in 60 ops", wl.name)
		}
		// The model graph follows the ops taken.
		in.stream.syncModel()
		if in.stream.model.NumEdges() != g.NumEdges() {
			t.Errorf("%s: the model graph did not follow the ops", wl.name)
		}
		for _, e := range g.EdgeList()[:50] {
			if !in.stream.model.HasEdge(e[0], e[1]) {
				t.Fatalf("%s: the model graph lacks edge %v", wl.name, e)
			}
		}
	}
}

func TestPatternSets(t *testing.T) {
	if n := len(enginePatterns()); n != 6 {
		t.Errorf("engine workloads run %d engines, want 6", n)
	}
	fan := fanoutPatterns(12)
	if len(fan) != 112 {
		t.Errorf("pipeline-fanout has %d patterns, want 112", len(fan))
	}
	ids := map[string]bool{}
	for _, ps := range fan {
		if ids[ps.id] {
			t.Errorf("duplicate pattern id %s", ps.id)
		}
		ids[ps.id] = true
		if err := ps.p.Validate(); err != nil {
			t.Errorf("pattern %s: %v", ps.id, err)
		}
	}
	if n := len(servePatterns(8)); n != 8 {
		t.Errorf("serve-stream has %d patterns, want 8", n)
	}
}
