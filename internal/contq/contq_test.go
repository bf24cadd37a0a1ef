package contq

import (
	"fmt"
	"sync"
	"testing"

	"gpm/internal/generator"
	"gpm/internal/graph"
	"gpm/internal/pattern"
)

// testPattern builds a generator pattern suited to a kind: normal for
// sim/iso, bounded for bsim.
func testPattern(g *graph.Graph, kind Kind, seed int64) *pattern.Pattern {
	k := 1
	if kind == KindBSim {
		k = 2
	}
	nodes, edges := 3, 3
	if kind == KindIso {
		nodes, edges = 3, 2 // keep the embedding search cheap
	}
	return generator.EmbeddedPattern(g, generator.PatternParams{Nodes: nodes, Edges: edges, Preds: 1, K: k}, seed)
}

// TestSubscriberDeltaEquivalence is the acceptance property: for random
// update sequences on generator graphs, the subscriber's accumulated
// deltas reproduce Result() exactly, for all three engine kinds.
func TestSubscriberDeltaEquivalence(t *testing.T) {
	for _, kind := range []Kind{KindSim, KindBSim, KindIso} {
		t.Run(string(kind), func(t *testing.T) {
			for seed := int64(1); seed <= 3; seed++ {
				g := generator.Synthetic(80, 320, generator.DefaultSchema(3), seed)
				ups := generator.Updates(g, 40, 40, seed+50)
				reg := New(g)
				p := testPattern(g, kind, seed)
				if err := reg.Register("q", p, kind); err != nil {
					t.Fatal(err)
				}
				sub, err := reg.Subscribe("q")
				if err != nil {
					t.Fatal(err)
				}
				acc := sub.Snapshot.Clone()
				nBatches := 0
				for i := 0; i < len(ups); i += 8 {
					end := i + 8
					if end > len(ups) {
						end = len(ups)
					}
					if _, err := reg.Apply(ups[i:end]); err != nil {
						t.Fatal(err)
					}
					nBatches++
				}
				lastSeq := sub.Seq
				for i := 0; i < nBatches; i++ {
					ev := <-sub.C
					if ev.Seq != lastSeq+1 {
						t.Fatalf("%s seed %d: commit order broken: got seq %d after %d", kind, seed, ev.Seq, lastSeq)
					}
					lastSeq = ev.Seq
					ev.Delta.Apply(acc)
				}
				want, ok := reg.Result("q")
				if !ok {
					t.Fatal("pattern vanished")
				}
				if !acc.Equal(want) {
					t.Fatalf("%s seed %d: accumulated deltas diverge from Result()", kind, seed)
				}
				sub.Cancel()
				reg.Close()
			}
		})
	}
}

// TestRegistryFanOutMatchesSoloEngines registers all three kinds at once
// and checks each pattern's registry result equals the from-scratch match
// over the same stream — the fan-out must not cross-contaminate patterns.
func TestRegistryFanOutMatchesSoloEngines(t *testing.T) {
	seed := int64(2)
	g := generator.Synthetic(80, 320, generator.DefaultSchema(3), seed)
	solo := g.Clone()
	ups := generator.Updates(g, 30, 30, seed+60)

	reg := New(g, WithWorkers(4))
	pats := map[string]Kind{"sim": KindSim, "bsim": KindBSim, "iso": KindIso}
	built := map[string]*pattern.Pattern{}
	for id, kind := range pats {
		p := testPattern(solo, kind, seed)
		built[id] = p
		if err := reg.Register(id, p, kind); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := reg.Apply(ups); err != nil {
		t.Fatal(err)
	}

	if _, err := solo.ApplyAll(ups); err != nil {
		t.Fatal(err)
	}
	for id, kind := range pats {
		got, ok := reg.Result(id)
		if !ok {
			t.Fatalf("%s missing", id)
		}
		if !got.Equal(oracleMatch(kind, built[id], solo)) {
			t.Fatalf("%s: registry result diverges from the from-scratch match", id)
		}
	}
}

// TestConcurrentSubscribersAndWriters exercises the registry under the
// race detector: one serialized writer stream, several subscribers
// consuming concurrently, and readers hammering Result/Patterns/GraphInfo.
func TestConcurrentSubscribersAndWriters(t *testing.T) {
	seed := int64(3)
	g := generator.Synthetic(60, 240, generator.DefaultSchema(3), seed)
	ups := generator.Updates(g, 60, 60, seed+70)
	reg := New(g)
	if err := reg.Register("sim", testPattern(g, KindSim, seed), KindSim); err != nil {
		t.Fatal(err)
	}
	if err := reg.Register("bsim", testPattern(g, KindBSim, seed), KindBSim); err != nil {
		t.Fatal(err)
	}

	const nSubs = 4
	const nBatches = 12
	var wg sync.WaitGroup
	errs := make(chan error, nSubs+2)

	// Racing writers may coalesce into fewer commits than Apply calls, so
	// subscribers cannot count events; they read until the final sequence
	// number, published here once all writers are done.
	finalSeq := make(chan uint64)

	for i := 0; i < nSubs; i++ {
		id := "sim"
		if i%2 == 1 {
			id = "bsim"
		}
		sub, err := reg.Subscribe(id)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(sub *Subscription) {
			defer wg.Done()
			acc := sub.Snapshot.Clone()
			last := sub.Seq
			end := <-finalSeq
			for last < end {
				ev, ok := <-sub.C
				if !ok {
					errs <- fmt.Errorf("stream closed early")
					return
				}
				if ev.Seq != last+1 {
					errs <- fmt.Errorf("out-of-order: %d after %d", ev.Seq, last)
					return
				}
				last = ev.Seq
				ev.Delta.Apply(acc)
			}
			want, _ := reg.Result(sub.Pattern)
			if !acc.Equal(want) {
				errs <- fmt.Errorf("%s: accumulated deltas diverge under concurrency", sub.Pattern)
			}
			sub.Cancel()
		}(sub)
	}

	// Concurrent readers.
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				reg.Result("sim")
				reg.Patterns()
				reg.GraphInfo()
			}
		}
	}()

	// Two writer goroutines race on Apply; the registry serializes them.
	chunk := len(ups) / nBatches
	var wwg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wwg.Add(1)
		go func(w int) {
			defer wwg.Done()
			for n := w; n < nBatches; n += 2 {
				batch := ups[n*chunk : (n+1)*chunk]
				if _, err := reg.Apply(batch); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wwg.Wait()
	end := reg.Seq()
	for i := 0; i < nSubs; i++ {
		finalSeq <- end
	}
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	st := reg.Stats()
	if st.Applies != nBatches || st.Commits == 0 || st.Commits > st.Applies || st.Seq != st.Commits {
		t.Fatalf("writer stats inconsistent: %+v", st)
	}
	reg.Close()
}

// TestRegisterUnregisterLifecycle covers duplicate ids, unknown lookups,
// unregister closing streams, and writes after Close failing.
func TestRegisterUnregisterLifecycle(t *testing.T) {
	g := generator.Synthetic(40, 160, generator.DefaultSchema(3), 1)
	reg := New(g)
	p := testPattern(g, KindSim, 1)
	if err := reg.Register("a", p, KindAuto); err != nil {
		t.Fatal(err)
	}
	if err := reg.Register("a", p, KindSim); err == nil {
		t.Fatal("duplicate register must fail")
	}
	if _, err := reg.Subscribe("nope"); err == nil {
		t.Fatal("subscribing to unknown pattern must fail")
	}
	if _, ok := reg.Result("nope"); ok {
		t.Fatal("Result for unknown pattern must report !ok")
	}
	infos := reg.Patterns()
	if len(infos) != 1 || infos[0].ID != "a" || infos[0].Kind != KindSim {
		t.Fatalf("Patterns() = %+v", infos)
	}

	sub, err := reg.Subscribe("a")
	if err != nil {
		t.Fatal(err)
	}
	if !reg.Unregister("a") {
		t.Fatal("unregister reported missing")
	}
	if reg.Unregister("a") {
		t.Fatal("double unregister reported present")
	}
	if _, ok := <-sub.C; ok {
		t.Fatal("unregister must close subscriber streams")
	}

	reg.Close()
	if _, err := reg.Apply(nil); err == nil {
		t.Fatal("Apply after Close must fail")
	}
	if err := reg.Register("b", p, KindSim); err == nil {
		t.Fatal("Register after Close must fail")
	}
}

// TestApplyValidatesEndpoints rejects updates naming nodes outside the
// graph before any engine sees them.
func TestApplyValidatesEndpoints(t *testing.T) {
	g := generator.Synthetic(20, 60, generator.DefaultSchema(3), 1)
	reg := New(g)
	if err := reg.Register("q", testPattern(g, KindSim, 1), KindSim); err != nil {
		t.Fatal(err)
	}
	before, _ := reg.Result("q")
	snapshot := before.Clone()
	if _, err := reg.Apply([]graph.Update{graph.Insert(0, 9999)}); err == nil {
		t.Fatal("out-of-range update must be rejected")
	}
	if _, err := reg.Apply([]graph.Update{{Op: 9, From: 0, To: 1}}); err == nil {
		t.Fatal("unknown op must be rejected before any engine sees it")
	}
	after, _ := reg.Result("q")
	if !after.Equal(snapshot) {
		t.Fatal("rejected batch must not change results")
	}
	if _, _, _, seq := reg.GraphInfo(); seq != 0 {
		t.Fatalf("rejected batch advanced seq to %d", seq)
	}
}

// TestLaggingSubscriberDoesNotBlockCommits verifies the unbounded mailbox:
// commits proceed while no one reads, and the lagging consumer still sees
// every event in order afterwards.
func TestLaggingSubscriberDoesNotBlockCommits(t *testing.T) {
	g := generator.Synthetic(40, 160, generator.DefaultSchema(3), 1)
	ups := generator.Updates(g, 30, 30, 5)
	reg := New(g)
	if err := reg.Register("q", testPattern(g, KindSim, 1), KindSim); err != nil {
		t.Fatal(err)
	}
	sub, err := reg.Subscribe("q")
	if err != nil {
		t.Fatal(err)
	}
	const n = 10
	for i := 0; i < n; i++ {
		if _, err := reg.Apply(ups[i*3 : i*3+3]); err != nil {
			t.Fatal(err) // would deadlock here if delivery blocked commits
		}
	}
	acc := sub.Snapshot.Clone()
	for i := 0; i < n; i++ {
		ev := <-sub.C
		if ev.Seq != sub.Seq+uint64(i)+1 {
			t.Fatalf("event %d has seq %d", i, ev.Seq)
		}
		ev.Delta.Apply(acc)
	}
	want, _ := reg.Result("q")
	if !acc.Equal(want) {
		t.Fatal("lagging subscriber's accumulation diverges")
	}
	sub.Cancel()
	if _, ok := <-sub.C; ok {
		t.Fatal("Cancel must close the stream")
	}
}

// TestRelationViewOfIsoMatchesEnumeration cross-checks an iso pattern's
// refcounted relation against the embedding enumeration over a fresh graph.
func TestRelationViewOfIsoMatchesEnumeration(t *testing.T) {
	seed := int64(4)
	g := generator.Synthetic(50, 150, generator.DefaultSchema(3), seed)
	p := testPattern(g, KindIso, seed)
	reg := New(g)
	if err := reg.Register("iso", p, KindIso); err != nil {
		t.Fatal(err)
	}
	ups := generator.Updates(g, 20, 20, seed+80)
	if _, err := reg.Apply(ups); err != nil {
		t.Fatal(err)
	}
	got, _ := reg.Result("iso")

	// Enumerate from scratch on an identical graph.
	g2 := generator.Synthetic(50, 150, generator.DefaultSchema(3), seed)
	if _, err := g2.ApplyAll(ups); err != nil {
		t.Fatal(err)
	}
	if !got.Equal(oracleMatch(KindIso, p, g2)) {
		t.Fatal("iso relation view diverges from the enumeration")
	}
}
