package pattern

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"testing"

	"gpm/internal/graph"
)

// renumber relabels p by m (m[orig] = new id), preserving structure.
func renumber(p *Pattern, m []int) *Pattern {
	inv := make([]int, len(m))
	for u, c := range m {
		inv[c] = u
	}
	q := New()
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

func chain(preds ...Predicate) *Pattern {
	p := New()
	for _, pr := range preds {
		p.AddNode(pr)
	}
	for i := 0; i+1 < len(preds); i++ {
		if err := p.AddEdge(i, i+1, 1); err != nil {
			panic(err)
		}
	}
	return p
}

func TestCanonicalKeyInvariantUnderRenumbering(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(6)
		p := New()
		for i := 0; i < n; i++ {
			p.AddNode(Label(string(rune('a' + rng.Intn(3)))))
		}
		for e := 0; e < rng.Intn(2*n); e++ {
			u, v := rng.Intn(n), rng.Intn(n)
			b := 1 + rng.Intn(3)
			if rng.Intn(5) == 0 {
				b = Unbounded
			}
			p.AddEdge(u, v, b) //nolint:errcheck // in-range
		}
		m := rand.New(rand.NewSource(int64(trial))).Perm(n)
		q := renumber(p, m)
		kp, kq := CanonicalKey(p), CanonicalKey(q)
		if kp != kq {
			t.Fatalf("trial %d: renumbered twin got a different key\n p=%s\n q=%s", trial, kp, kq)
		}
	}
}

func TestCanonicalKeySeparatesStructures(t *testing.T) {
	a := chain(Label("a"), Label("b"))
	b := chain(Label("b"), Label("a"))
	if CanonicalKey(a) == CanonicalKey(b) {
		t.Fatalf("a->b and b->a chains share a key")
	}
	c := chain(Label("a"), Label("b"))
	c.AddEdge(0, 1, 2) //nolint:errcheck // overwrite bound
	if CanonicalKey(a) == CanonicalKey(c) {
		t.Fatalf("bound-1 and bound-2 edges share a key")
	}
	d := chain(Label("a"), Label("b"))
	if err := d.AddColoredEdge(0, 1, 1, "friend"); err != nil {
		t.Fatal(err)
	}
	if CanonicalKey(a) == CanonicalKey(d) {
		t.Fatalf("plain and colored edges share a key")
	}
}

func TestDecomposeCanonIsEquivalentRelabeling(t *testing.T) {
	p := New()
	p.AddNode(Label("b"))
	p.AddNode(Label("a"))
	p.AddNode(Label("a"))
	p.AddEdge(0, 1, 1) //nolint:errcheck
	p.AddEdge(1, 2, 3) //nolint:errcheck
	d := Decompose(p)
	if d.Canon.NumNodes() != 3 || d.Canon.NumEdges() != 2 {
		t.Fatalf("canon shape: %d nodes %d edges", d.Canon.NumNodes(), d.Canon.NumEdges())
	}
	// Every original edge must appear, relabeled, with its bound.
	for _, e := range p.Edges() {
		b, ok := d.Canon.Bound(d.Perm[e.From], d.Perm[e.To])
		if !ok || b != e.Bound {
			t.Fatalf("edge (%d,%d) bound %d missing in canon", e.From, e.To, e.Bound)
		}
		if d.Canon.Pred(d.Perm[e.From]).String() != p.Pred(e.From).String() {
			t.Fatalf("predicate moved under relabeling")
		}
	}
	// Decompose(Canon) must be a fixpoint: identity perm, same key.
	d2 := Decompose(d.Canon)
	if !d2.Identity() {
		t.Fatalf("canonical form is not a canonicalization fixpoint: perm %v", d2.Perm)
	}
	if d2.Key != d.Key {
		t.Fatalf("canon key drifted: %q vs %q", d2.Key, d.Key)
	}
}

func TestDecomposeSharedNodes(t *testing.T) {
	// a->a->a chain: one pred node carried by all three pattern nodes.
	p := chain(Label("a"), Label("a"), Label("a"))
	d := Decompose(p)
	if len(d.Preds) != 1 {
		t.Fatalf("want 1 pred node, got %d", len(d.Preds))
	}
	if len(d.Preds[0].Nodes) != 3 {
		t.Fatalf("pred node should cover 3 pattern nodes, got %v", d.Preds[0].Nodes)
	}
}

func TestDecomposeDeterministicAcrossRoundTrips(t *testing.T) {
	pats := []*Pattern{
		chain(Label("a"), Label("b"), Label("a")),
		renumber(chain(Label("x"), Label("y"), Label("z")), []int{2, 0, 1}),
	}
	withVal := New()
	withVal.AddNode(Predicate{{Attr: "name", Op: OpEQ, Val: graph.String(`tricky && "x" <= 1`)}})
	withVal.AddNode(Predicate{{Attr: "score", Op: OpGE, Val: graph.Float(5)}})
	withVal.AddEdge(0, 1, 2) //nolint:errcheck
	pats = append(pats, withVal)

	for i, p := range pats {
		want := CanonicalKey(p)

		var text bytes.Buffer
		if err := p.Write(&text); err != nil {
			t.Fatal(err)
		}
		fromText, err := Parse(&text)
		if err != nil {
			t.Fatalf("pattern %d: text round-trip: %v", i, err)
		}
		if got := CanonicalKey(fromText); got != want {
			t.Fatalf("pattern %d: text round-trip changed key\n want %s\n  got %s", i, want, got)
		}

		js, err := json.Marshal(p)
		if err != nil {
			t.Fatal(err)
		}
		fromJSON := New()
		if err := json.Unmarshal(js, fromJSON); err != nil {
			t.Fatalf("pattern %d: json round-trip: %v", i, err)
		}
		if got := CanonicalKey(fromJSON); got != want {
			t.Fatalf("pattern %d: json round-trip changed key\n want %s\n  got %s", i, want, got)
		}
	}
}

// The canonical-form drift the decomposition fuzzing surfaced: string
// values containing "&&" or comparison operators used to confuse the
// conjunction splitter and the operator scan, quotes and control
// characters broke the quoted form, and NaN floats gained a spurious
// ".0" suffix that demoted them to strings on reparse.
func TestPredicateRoundTripDrift(t *testing.T) {
	cases := []Predicate{
		{{Attr: "name", Op: OpEQ, Val: graph.String("a && b")}},
		{{Attr: "name", Op: OpEQ, Val: graph.String("x<=y")}},
		{{Attr: "name", Op: OpNE, Val: graph.String(`quo"te`)}},
		{{Attr: "name", Op: OpEQ, Val: graph.String("line\nbreak")}},
		{{Attr: "name", Op: OpEQ, Val: graph.String(`back\slash`)}},
		{{Attr: "name", Op: OpEQ, Val: graph.String("bad\x83utf8")}},
		{{Attr: "a", Op: OpLT, Val: graph.Float(1)}, {Attr: "b", Op: OpGT, Val: graph.Int(2)}},
	}
	for i, pred := range cases {
		got, err := ParsePredicate(pred.String())
		if err != nil {
			t.Fatalf("case %d: reparse of %q: %v", i, pred.String(), err)
		}
		if got.String() != pred.String() {
			t.Fatalf("case %d: drift: %q -> %q", i, pred.String(), got.String())
		}
	}
	// The historic mis-parse: an attr containing '=' used to win the scan
	// for a later two-char operator. Position-first scanning parses the
	// first operator instead, and the result round-trips stably.
	p1, err := ParsePredicate(`a=b<=c`)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := ParsePredicate(p1.String())
	if err != nil {
		t.Fatalf("reparse of %q: %v", p1.String(), err)
	}
	if p1.String() != p2.String() {
		t.Fatalf("operator-scan drift: %q -> %q", p1.String(), p2.String())
	}
}

func TestValueQuoteNonFinite(t *testing.T) {
	for _, s := range []string{"NaN", "+Inf", "-Inf"} {
		v := graph.ParseValue(s)
		if v.Kind() != graph.KindFloat {
			t.Fatalf("%s did not parse as float", s)
		}
		back := graph.ParseValue(v.Quote())
		if back.Kind() != graph.KindFloat {
			t.Fatalf("%s quoted as %q, reparsed as kind %d", s, v.Quote(), back.Kind())
		}
	}
}

func TestColoredEdgeRejectsUnwritableColor(t *testing.T) {
	p := New()
	p.AddNode(nil)
	p.AddNode(nil)
	for _, color := range []string{"two words", "tab\tbed", "line\nbreak"} {
		if err := p.AddColoredEdge(0, 1, 1, color); err == nil {
			t.Fatalf("color %q accepted but cannot round-trip the text format", color)
		}
	}
	if p.NumEdges() != 0 {
		t.Fatalf("rejected colors left %d edges behind", p.NumEdges())
	}
	if err := p.AddColoredEdge(0, 1, 1, "friend"); err != nil {
		t.Fatalf("plain color rejected: %v", err)
	}
}
