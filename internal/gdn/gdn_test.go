package gdn

import (
	"flag"
	"fmt"
	"math/rand"
	"testing"

	"gpm/internal/generator"
	"gpm/internal/graph"
	"gpm/internal/incbsim"
	"gpm/internal/incsim"
	"gpm/internal/iso"
	"gpm/internal/pattern"
	"gpm/internal/rel"
)

// randomUpdates builds a mixed batch of inserts and deletes over g's nodes,
// biased toward deleting existing edges so both repair paths exercise.
func randomUpdates(g *graph.Graph, k int, rng *rand.Rand) []graph.Update {
	n := g.NumNodes()
	ups := make([]graph.Update, 0, k)
	for i := 0; i < k; i++ {
		if rng.Intn(2) == 0 && g.NumEdges() > 0 {
			var es [][2]graph.NodeID
			g.Edges(func(u, v graph.NodeID) bool {
				es = append(es, [2]graph.NodeID{u, v})
				return true
			})
			e := es[rng.Intn(len(es))]
			ups = append(ups, graph.Delete(e[0], e[1]))
		} else {
			ups = append(ups, graph.Insert(rng.Intn(n), rng.Intn(n)))
		}
	}
	return ups
}

func deltasEqual(a, b rel.Delta) bool {
	a.Sort()
	b.Sort()
	if len(a.Removed) != len(b.Removed) || len(a.Added) != len(b.Added) {
		return false
	}
	for i := range a.Removed {
		if a.Removed[i] != b.Removed[i] {
			return false
		}
	}
	for i := range a.Added {
		if a.Added[i] != b.Added[i] {
			return false
		}
	}
	return true
}

// simEngine puts a private incsim engine behind the engine interface,
// through incsim's own BatchDelta (its minDelta reduction first) rather than
// the repair core's that the network calls.
type simEngine struct{ *incsim.Engine }

func (e simEngine) BatchDelta(ups []graph.Update) rel.Delta {
	_, d := e.Engine.BatchDelta(ups)
	return d
}

// privateEngine builds the one-engine-per-pattern reference of a kind over
// g, unfiltered and sharing nothing with the network.
func privateEngine(t *testing.T, kind string, p *pattern.Pattern, g graph.View) engine {
	t.Helper()
	switch kind {
	case KindSim:
		e, err := incsim.NewShared(p, g)
		if err != nil {
			t.Fatalf("private engine: %v", err)
		}
		return simEngine{e}
	case KindBSim:
		e, err := incbsim.NewShared(p, g)
		if err != nil {
			t.Fatalf("private engine: %v", err)
		}
		return e
	}
	return iso.NewEngineShared(p, g)
}

// renumber relabels p by the permutation m (m[orig] = new id).
func renumber(p *pattern.Pattern, m []int) *pattern.Pattern {
	inv := make([]int, len(m))
	for u, c := range m {
		inv[c] = u
	}
	q := pattern.New()
	for c := range inv {
		q.AddNode(p.Pred(inv[c]))
	}
	for _, e := range p.Edges() {
		if err := q.AddColoredEdge(m[e.From], m[e.To], e.Bound, e.Color); err != nil {
			panic(err)
		}
	}
	return q
}

// A failing case of TestEquivalenceAgainstPrivateEngines names its seed;
// replay it with `go test ./internal/gdn -run TestEquivalenceAgainstPrivateEngines
// -gdn.seed N` (any other seed explores a case outside the fixed list).
var equivalenceSeed = flag.Int64("gdn.seed", 0, "run TestEquivalenceAgainstPrivateEngines on this one seed")

// TestEquivalenceAgainstPrivateEngines is the network's core correctness
// property: for every registered pattern, the handle's Result and
// per-commit Delta are identical to a private one-engine-per-pattern
// layout fed the same effective update stream. The private engines run
// every commit unfiltered, so a join the relevance filter skipped wrongly
// shows as a delta mismatch. Graph, patterns and updates are all drawn
// from the seed.
func TestEquivalenceAgainstPrivateEngines(t *testing.T) {
	seeds := make([]int64, 20)
	for i := range seeds {
		seeds[i] = int64(i + 1)
	}
	if *equivalenceSeed != 0 {
		seeds = []int64{*equivalenceSeed}
	}
	for _, kind := range []string{KindSim, KindBSim, KindIso} {
		t.Run(kind, func(t *testing.T) {
			for _, seed := range seeds {
				t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) { equivalence(t, kind, seed) })
			}
		})
	}
}

func equivalence(t *testing.T, kind string, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	g := generator.RandomGraph(40+rng.Intn(40), 100+rng.Intn(100), 3, rng.Int63())
	net := New(g, 1)

	type pat struct {
		h    *Handle
		priv engine
	}
	var pats []pat
	addPat := func(p *pattern.Pattern) {
		h, err := net.Register(kind, p)
		if err != nil {
			t.Fatalf("seed %d: Register: %v", seed, err)
		}
		pats = append(pats, pat{h: h, priv: privateEngine(t, kind, p, g)})
	}

	// Bounded patterns draw a max bound of 1 to 3, so both the all-bound-1
	// filter and the always-relevant path run under bsim too.
	maxBound := func() int {
		if kind != KindBSim {
			return 1
		}
		return 1 + rng.Intn(3)
	}
	base := generator.RandomPattern(3, 3, 3, maxBound(), rng.Int63())
	addPat(base)
	addPat(renumber(base, []int{2, 0, 1})) // renumbered twin: shares the join
	addPat(generator.RandomPattern(2, 2, 3, maxBound(), rng.Int63()))
	addPat(generator.RandomPattern(4, 4, 3, maxBound(), rng.Int63()))
	single := pattern.New() // zero-edge pattern: simulation joins always skip
	single.AddNode(pattern.Label("a"))
	addPat(single)

	if s := net.Stats(); s.JoinNodes >= s.Patterns {
		t.Fatalf("seed %d: renumbered twin did not share its join: %+v", seed, s)
	}

	for round := 0; round < 25; round++ {
		effective := graph.NetUpdates(g, randomUpdates(g, 1+rng.Intn(6), rng))
		if len(effective) == 0 {
			continue
		}
		net.Apply(effective)
		for i := range pats {
			want := pats[i].priv.BatchDelta(effective)
			got := mustDelta(t, pats[i].h)
			if !deltasEqual(got, want) {
				t.Fatalf("seed %d round %d pattern %d: delta mismatch\n got  %+v\n want %+v", seed, round, i, got, want)
			}
		}
		if _, err := g.ApplyAll(effective); err != nil {
			t.Fatal(err)
		}
		for i := range pats {
			if got, want := pats[i].h.Result(), pats[i].priv.Result(); !got.Equal(want) {
				t.Fatalf("seed %d round %d pattern %d: result mismatch\n got  %v\n want %v", seed, round, i, got, want)
			}
		}
	}
	s := net.Stats()
	if s.RepairsSaved == 0 {
		t.Fatalf("seed %d: no repairs saved over 25 commits with a shared join + zero-edge pattern: %+v", seed, s)
	}
	for i := range pats {
		pats[i].h.Release()
	}
	if s := net.Stats(); s.Patterns != 0 || s.JoinNodes != 0 || s.PredNodes != 0 {
		t.Fatalf("seed %d: release did not tear the network down: %+v", seed, s)
	}
}

func TestSharingAndRefcounts(t *testing.T) {
	g := generator.RandomGraph(30, 60, 2, 3)
	net := New(g, 1)
	// a->b and its renumbered twin share everything; b->a shares the
	// predicate leaves but needs its own join.
	ab := pattern.New()
	ab.AddNode(pattern.Label("a"))
	ab.AddNode(pattern.Label("b"))
	if err := ab.AddEdge(0, 1, 1); err != nil {
		t.Fatal(err)
	}
	ba := pattern.New()
	ba.AddNode(pattern.Label("b"))
	ba.AddNode(pattern.Label("a"))
	if err := ba.AddEdge(0, 1, 1); err != nil {
		t.Fatal(err)
	}

	h1, err := net.Register(KindSim, ab)
	if err != nil {
		t.Fatal(err)
	}
	h2, err := net.Register(KindSim, renumber(ab, []int{1, 0}))
	if err != nil {
		t.Fatal(err)
	}
	h3, err := net.Register(KindSim, ba)
	if err != nil {
		t.Fatal(err)
	}
	s := net.Stats()
	if s.PredNodes != 2 || s.JoinNodes != 2 || s.Patterns != 3 {
		t.Fatalf("unexpected shape: %+v", s)
	}
	if s.RegisterReused != 1 {
		t.Fatalf("want 1 reused register, got %d", s.RegisterReused)
	}

	h2.Release()
	h2.Release() // double release is a no-op
	if s := net.Stats(); s.JoinNodes != 2 || s.Patterns != 2 {
		t.Fatalf("after twin release: %+v", s)
	}
	h1.Release()
	if s := net.Stats(); s.JoinNodes != 1 || s.PredNodes != 2 {
		t.Fatalf("after ab release: %+v", s)
	}
	h3.Release()
	if s := net.Stats(); s.JoinNodes != 0 || s.PredNodes != 0 || s.Patterns != 0 {
		t.Fatalf("network not empty: %+v", s)
	}
}

func TestRelevanceSkip(t *testing.T) {
	// Graph with labels a..c; the pattern only involves a and b, so updates
	// between c-labeled nodes must be skipped without any join repair.
	g := graph.New()
	var a, b, c []int
	for i := 0; i < 12; i++ {
		lbl := string(rune('a' + i%3))
		id := g.AddNode(graph.Tuple{"label": graph.String(lbl)})
		switch i % 3 {
		case 0:
			a = append(a, id)
		case 1:
			b = append(b, id)
		default:
			c = append(c, id)
		}
	}
	p := pattern.New()
	p.AddNode(pattern.Label("a"))
	p.AddNode(pattern.Label("b"))
	if err := p.AddEdge(0, 1, 1); err != nil {
		t.Fatal(err)
	}
	net := New(g, 1)
	h, err := net.Register(KindSim, p)
	if err != nil {
		t.Fatal(err)
	}

	// Irrelevant commit: c->c edges only.
	ups := []graph.Update{graph.Insert(c[0], c[1]), graph.Insert(c[1], c[2])}
	net.Apply(ups)
	if d := mustDelta(t, h); !d.Empty() {
		t.Fatalf("irrelevant commit moved the match: %+v", d)
	}
	if _, err := g.ApplyAll(ups); err != nil {
		t.Fatal(err)
	}
	s := net.Stats()
	if s.JoinRepairs != 0 {
		t.Fatalf("irrelevant commit repaired nodes: %+v", s)
	}
	if s.RepairsSaved != 1 {
		t.Fatalf("want 1 repair saved, got %+v", s)
	}

	// Relevant commit: an a->b edge appears; the join must repair and the
	// delta must show the new match.
	ups = []graph.Update{graph.Insert(a[0], b[0])}
	net.Apply(ups)
	d := mustDelta(t, h)
	if len(d.Added) == 0 {
		t.Fatalf("relevant insert produced no delta")
	}
	if _, err := g.ApplyAll(ups); err != nil {
		t.Fatal(err)
	}
	if s := net.Stats(); s.JoinRepairs != 1 {
		t.Fatalf("relevant commit should repair the join: %+v", s)
	}

	// Deleting an edge no current match touches is also skipped — the
	// deletion filter reads the join's match state, not just sat.
	ups = []graph.Update{graph.Delete(c[0], c[1])}
	net.Apply(ups)
	if d := mustDelta(t, h); !d.Empty() {
		t.Fatalf("irrelevant delete moved the match: %+v", d)
	}
	if _, err := g.ApplyAll(ups); err != nil {
		t.Fatal(err)
	}
	if s := net.Stats(); s.JoinRepairs != 1 {
		t.Fatalf("irrelevant delete repaired the join: %+v", s)
	}

	// The deletion filter reads the whole join's match, which is tighter
	// than any one pattern edge's: a[1]->b[1] matches the edge a->b of
	// a->b->c on its own, but b[1] has no c-successor, so a[1] is not in
	// the join's match and deleting a[1]->b[1] cannot move it.
	for _, e := range [][2]int{{b[0], c[0]}, {a[1], b[1]}} {
		if _, err := g.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	abc := pattern.New()
	abc.AddNode(pattern.Label("a"))
	abc.AddNode(pattern.Label("b"))
	abc.AddNode(pattern.Label("c"))
	if err := abc.AddEdge(0, 1, 1); err != nil {
		t.Fatal(err)
	}
	if err := abc.AddEdge(1, 2, 1); err != nil {
		t.Fatal(err)
	}
	chainNet := New(g, 1)
	hc, err := chainNet.Register(KindSim, abc)
	if err != nil {
		t.Fatal(err)
	}
	if m := hc.Result(); !m[0].Has(a[0]) || m[0].Has(a[1]) {
		t.Fatalf("want a[0] and not a[1] in the join's match of a, got %v", m)
	}
	ups = []graph.Update{graph.Delete(a[1], b[1])}
	chainNet.Apply(ups)
	if d := mustDelta(t, hc); !d.Empty() {
		t.Fatalf("delete outside the join's match moved it: %+v", d)
	}
	if s := chainNet.Stats(); s.JoinRepairs != 0 {
		t.Fatalf("delete outside the join's match repaired the join: %+v", s)
	}
}

func TestRegisterRejectsBadKinds(t *testing.T) {
	g := generator.RandomGraph(10, 20, 2, 3)
	net := New(g, 1)
	bounded := pattern.New()
	bounded.AddNode(pattern.Label("a"))
	bounded.AddNode(pattern.Label("b"))
	if err := bounded.AddEdge(0, 1, 2); err != nil {
		t.Fatal(err)
	}
	if _, err := net.Register(KindSim, bounded); err == nil {
		t.Fatal("sim accepted a non-normal pattern")
	}
	if _, err := net.Register(KindIso, bounded); err == nil {
		t.Fatal("iso accepted a non-normal pattern")
	}
	colored := pattern.New()
	colored.AddNode(pattern.Label("a"))
	colored.AddNode(pattern.Label("b"))
	if err := colored.AddColoredEdge(0, 1, 1, "red"); err != nil {
		t.Fatal(err)
	}
	if _, err := net.Register(KindIso, colored); err == nil {
		t.Fatal("iso accepted a colored pattern")
	}
	if _, err := net.Register("nope", bounded); err == nil {
		t.Fatal("unknown kind accepted")
	}
	// A failed registration must leave nothing acquired behind.
	if s := net.Stats(); s.PredNodes != 0 || s.JoinNodes != 0 || s.Patterns != 0 {
		t.Fatalf("failed register leaked nodes: %+v", s)
	}
	// The same pattern registers fine as bsim.
	h, err := net.Register(KindBSim, bounded)
	if err != nil {
		t.Fatal(err)
	}
	h.Release()
}

// mustDelta is h.Delta() for a handle whose join must not have broken.
func mustDelta(t *testing.T, h *Handle) rel.Delta {
	t.Helper()
	d, ok := h.Delta()
	if !ok {
		t.Fatal("healthy join reported broken")
	}
	return d
}

// panicEngine is a join engine whose repair always panics.
type panicEngine struct{ engine }

func (panicEngine) BatchDelta([]graph.Update) rel.Delta { panic("boom") }

// TestBrokenJoinIsContained: a join whose repair panics is contained by
// Apply — it is marked broken and leaves the network map, every handle on
// it reports false from Delta (the registry's eviction signal), the other
// joins repair as usual, the broken shape re-registers into a fresh join,
// and the old node's teardown never touches the new one.
func TestBrokenJoinIsContained(t *testing.T) {
	g := generator.RandomGraph(40, 120, 3, 7)
	net := New(g, 1)
	// Both shapes have a bound-2 edge, so both joins are relevant to every
	// commit and repair side by side.
	abc := pattern.New()
	bca := pattern.New()
	for _, l := range []string{"a", "b", "c"} {
		abc.AddNode(pattern.Label(l))
	}
	for _, l := range []string{"b", "c", "a"} {
		bca.AddNode(pattern.Label(l))
	}
	for _, e := range [][3]int{{0, 1, 2}, {1, 2, 1}} {
		if err := abc.AddEdge(e[0], e[1], e[2]); err != nil {
			t.Fatal(err)
		}
	}
	for _, e := range [][2]int{{0, 1}, {1, 2}} {
		if err := bca.AddEdge(e[0], e[1], 2); err != nil {
			t.Fatal(err)
		}
	}
	register := func(p *pattern.Pattern) *Handle {
		t.Helper()
		h, err := net.Register(KindBSim, p)
		if err != nil {
			t.Fatal(err)
		}
		return h
	}
	broken, twin, healthy := register(abc), register(renumber(abc, []int{2, 0, 1})), register(bca)
	if broken.join != twin.join {
		t.Fatal("renumbered twin did not share its join")
	}
	before := net.Stats()
	priv := privateEngine(t, KindBSim, bca, g)
	broken.join.eng = panicEngine{broken.join.eng}

	ups := graph.NetUpdates(g, randomUpdates(g, 16, rand.New(rand.NewSource(7))))
	net.Apply(ups) // must not panic
	if got, want := mustDelta(t, healthy), priv.BatchDelta(ups); !deltasEqual(got, want) || want.Empty() {
		t.Fatalf("healthy join's delta %+v, private engine's %+v (want nonempty)", got, want)
	}
	for name, h := range map[string]*Handle{"broken": broken, "twin": twin} {
		if _, ok := h.Delta(); ok {
			t.Errorf("%s handle's Delta did not report its broken join", name)
		}
	}
	if s := net.Stats(); s.JoinNodes != before.JoinNodes-1 {
		t.Fatalf("broken join still in the network: before %+v, after %+v", before, s)
	}
	if _, err := g.ApplyAll(ups); err != nil {
		t.Fatal(err)
	}

	fresh := register(abc)
	if fresh.join == broken.join {
		t.Fatal("re-registration reused the broken join")
	}
	if got, want := fresh.Result(), privateEngine(t, KindBSim, abc, g).Result(); !got.Equal(want) {
		t.Fatalf("fresh join's result %v, private engine's %v", got, want)
	}
	broken.Release()
	twin.Release()
	if s := net.Stats(); s.JoinNodes != before.JoinNodes || s.Patterns != 2 {
		t.Fatalf("releasing the broken handles touched the fresh join: %+v", s)
	}
	healthy.Release()
	fresh.Release()
	if s := net.Stats(); s.Patterns != 0 || s.JoinNodes != 0 || s.PredNodes != 0 {
		t.Fatalf("release did not tear the network down: %+v", s)
	}
}
