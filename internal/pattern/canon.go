package pattern

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// This file is the canonicalization/decomposition layer of the shared
// sub-pattern evaluation network (internal/gdn): it breaks a pattern into
// the network's nodes — vertex-predicate leaves and one join tip per
// pattern — and gives every node a deterministic canonical key, so
// structurally identical sub-patterns hash to the same key across patterns
// regardless of how their nodes are numbered. The keys are what lets the
// network maintain each shared node's match-state once per commit instead
// of once per standing pattern.
//
// Canonical labeling is graph canonization, so exact invariance under node
// renumbering is bought with a bounded search: Weisfeiler-Lehman color
// refinement partitions the nodes, and the lexicographically smallest
// encoding over the (usually singleton) color classes is chosen by
// enumerating within-class permutations. Patterns whose automorphism
// candidates exceed canonMaxPerms — pathological symmetric patterns far
// beyond anything the generators or the wire format produce — fall back to
// a deterministic but renumbering-sensitive order: their keys are still
// stable across serialization round-trips (node ids survive JSON/text),
// they just stop sharing with renumbered twins.

// canonMaxPerms caps the within-class permutation search (7! = 5040).
const canonMaxPerms = 5040

// PredKey returns the canonical key of a node predicate: the text-syntax
// conjunction, which the parser round-trips byte-identically.
func PredKey(p Predicate) string { return p.String() }

// escapeKey makes a predicate string safe for embedding in a '|'-separated
// key ('\' then '|' are escaped).
func escapeKey(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "|", `\|`)
}

// PredNode is one shared vertex-predicate leaf of a decomposition: the
// canonical predicate key and the canonical pattern nodes that carry it.
type PredNode struct {
	Key   string
	Pred  Predicate
	Nodes []NodeID // canonical node ids carrying this predicate, ascending
}

// Decomposition is a pattern broken into the network's nodes: predicate
// leaves and the join tip (the canonically relabeled whole pattern) that
// combines them.
type Decomposition struct {
	// Key is the canonical key of the whole pattern — the join node's key.
	// Structurally identical patterns (equal up to node renumbering, within
	// the canonMaxPerms search bound) share it.
	Key string
	// Canon is the pattern relabeled into canonical node order. Engines in
	// the shared network evaluate Canon; results map back through Perm.
	Canon *Pattern
	// Perm maps original node ids to canonical ones: Perm[u] is Canon's id
	// for p's node u.
	Perm []NodeID
	// Preds are the distinct predicate leaves, sorted by key.
	Preds []PredNode
}

// Identity reports whether the canonical relabeling is the identity (the
// pattern was already in canonical order), letting callers skip remapping.
func (d *Decomposition) Identity() bool {
	for u, c := range d.Perm {
		if u != c {
			return false
		}
	}
	return true
}

// Decompose canonicalizes p and breaks it into the network's predicate
// leaves and join tip. The decomposition is deterministic: the same
// pattern — including after any String()/JSON round-trip — yields
// byte-identical keys.
func Decompose(p *Pattern) *Decomposition {
	perm := canonicalPerm(p)
	np := p.NumNodes()
	inv := make([]NodeID, np) // canonical id -> original id
	for u, c := range perm {
		inv[c] = u
	}
	canon := New()
	for c := 0; c < np; c++ {
		canon.AddNode(p.Pred(inv[c]))
	}
	for _, e := range p.Edges() {
		if err := canon.AddColoredEdge(perm[e.From], perm[e.To], e.Bound, e.Color); err != nil {
			panic("pattern: Decompose relabel: " + err.Error()) // unreachable: same topology
		}
	}

	d := &Decomposition{Canon: canon, Perm: perm}
	predIx := make(map[string]int)
	for c := 0; c < np; c++ {
		key := PredKey(canon.Pred(c))
		i, ok := predIx[key]
		if !ok {
			i = len(d.Preds)
			predIx[key] = i
			d.Preds = append(d.Preds, PredNode{Key: key, Pred: canon.Pred(c)})
		}
		d.Preds[i].Nodes = append(d.Preds[i].Nodes, c)
	}
	sort.Slice(d.Preds, func(i, j int) bool { return d.Preds[i].Key < d.Preds[j].Key })

	d.Key = encode(canon, identityPerm(np))
	return d
}

// CanonicalKey returns the whole-pattern canonical key without building the
// full decomposition.
func CanonicalKey(p *Pattern) string {
	perm := canonicalPerm(p)
	return encode(p, perm)
}

func identityPerm(n int) []NodeID {
	perm := make([]NodeID, n)
	for i := range perm {
		perm[i] = i
	}
	return perm
}

// encode serializes p under the node relabeling perm (perm[orig] = new id):
// one predicate line per new id, then the relabeled edges in sorted order.
func encode(p *Pattern, perm []NodeID) string {
	np := p.NumNodes()
	inv := make([]NodeID, np)
	for u, c := range perm {
		inv[c] = u
	}
	var b strings.Builder
	fmt.Fprintf(&b, "p%d/%d", np, p.NumEdges())
	for c := 0; c < np; c++ {
		b.WriteString(";n")
		b.WriteString(escapeKey(PredKey(p.Pred(inv[c]))))
	}
	type edge struct {
		from, to, bound int
		color           string
	}
	edges := make([]edge, 0, p.NumEdges())
	for _, e := range p.Edges() {
		edges = append(edges, edge{perm[e.From], perm[e.To], e.Bound, e.Color})
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].from != edges[j].from {
			return edges[i].from < edges[j].from
		}
		return edges[i].to < edges[j].to
	})
	for _, e := range edges {
		bound := "*"
		if e.bound != Unbounded {
			bound = strconv.Itoa(e.bound)
		}
		fmt.Fprintf(&b, ";e%d>%d/%s/%s", e.from, e.to, bound, e.color)
	}
	return b.String()
}

// canonicalPerm computes the canonical relabeling perm[orig] = canonical id:
// WL color refinement, then the lexicographically smallest encoding over
// within-class permutations (classes ordered by refined color), with the
// deterministic (color, original id) fallback past canonMaxPerms.
func canonicalPerm(p *Pattern) []NodeID {
	np := p.NumNodes()
	if np == 0 {
		return nil
	}
	colors := refine(p)

	// Group nodes by final color, classes in ascending color order.
	classOf := make(map[int][]NodeID)
	colorVals := make([]int, 0)
	for u, c := range colors {
		if _, ok := classOf[c]; !ok {
			colorVals = append(colorVals, c)
		}
		classOf[c] = append(classOf[c], u)
	}
	sort.Ints(colorVals)
	classes := make([][]NodeID, len(colorVals))
	for i, c := range colorVals {
		sort.Ints(classOf[c])
		classes[i] = classOf[c]
	}
	perms := 1
	capped := false
	for _, class := range classes {
		f := factorial(len(class))
		if perms > canonMaxPerms/f {
			capped = true
			break
		}
		perms *= f
	}

	if capped {
		// Deterministic fallback: class order then original id. Stable
		// across round-trips (ids survive serialization), but renumbered
		// twins of such patterns do not share.
		perm := make([]NodeID, np)
		pos := 0
		for _, class := range classes {
			for _, u := range class {
				perm[u] = pos
				pos++
			}
		}
		return perm
	}

	var best string
	var bestPerm []NodeID
	enumerate(classes, func(order []NodeID) {
		perm := make([]NodeID, np)
		for pos, u := range order {
			perm[u] = pos
		}
		enc := encode(p, perm)
		if bestPerm == nil || enc < best {
			best = enc
			bestPerm = perm
		}
	})
	return bestPerm
}

// refine runs Weisfeiler-Lehman color refinement: initial colors are the
// predicate keys; each round a node's color absorbs the sorted multiset of
// its incident (direction, bound, edge color, neighbor color) signatures.
// Colors are re-indexed to dense ints each round by sorted signature, so
// they stay intrinsic to the pattern's structure (renumbering-invariant).
func refine(p *Pattern) []int {
	np := p.NumNodes()
	sigs := make([]string, np)
	for u := 0; u < np; u++ {
		sigs[u] = PredKey(p.Pred(u))
	}
	colors := rank(sigs)
	edges := p.Edges()
	for round := 0; round < np; round++ {
		for u := 0; u < np; u++ {
			sigs[u] = strconv.Itoa(colors[u])
		}
		parts := make([][]string, np)
		for _, e := range edges {
			bound := "*"
			if e.Bound != Unbounded {
				bound = strconv.Itoa(e.Bound)
			}
			parts[e.From] = append(parts[e.From],
				fmt.Sprintf("o/%s/%s/%d", bound, e.Color, colors[e.To]))
			parts[e.To] = append(parts[e.To],
				fmt.Sprintf("i/%s/%s/%d", bound, e.Color, colors[e.From]))
		}
		for u := 0; u < np; u++ {
			sort.Strings(parts[u])
			sigs[u] += "#" + strings.Join(parts[u], "#")
		}
		next := rank(sigs)
		if same(colors, next) {
			return next
		}
		colors = next
	}
	return colors
}

// rank maps each signature to its index among the sorted distinct
// signatures.
func rank(sigs []string) []int {
	uniq := append([]string(nil), sigs...)
	sort.Strings(uniq)
	uniq = compact(uniq)
	ix := make(map[string]int, len(uniq))
	for i, s := range uniq {
		ix[s] = i
	}
	out := make([]int, len(sigs))
	for i, s := range sigs {
		out[i] = ix[s]
	}
	return out
}

func compact(sorted []string) []string {
	out := sorted[:0]
	for i, s := range sorted {
		if i == 0 || s != sorted[i-1] {
			out = append(out, s)
		}
	}
	return out
}

func same(a, b []int) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func factorial(n int) int {
	f := 1
	for i := 2; i <= n; i++ {
		if f > canonMaxPerms {
			return canonMaxPerms + 1
		}
		f *= i
	}
	return f
}

// enumerate yields every node order that keeps each class contiguous and in
// class order, permuting only within classes.
func enumerate(classes [][]NodeID, visit func(order []NodeID)) {
	order := make([]NodeID, 0)
	var rec func(i int)
	rec = func(i int) {
		if i == len(classes) {
			visit(order)
			return
		}
		permute(append([]NodeID(nil), classes[i]...), 0, func(cl []NodeID) {
			order = append(order, cl...)
			rec(i + 1)
			order = order[:len(order)-len(cl)]
		})
	}
	rec(0)
}

// permute enumerates permutations of cl in place from position k.
func permute(cl []NodeID, k int, visit func([]NodeID)) {
	if k == len(cl) {
		visit(cl)
		return
	}
	for i := k; i < len(cl); i++ {
		cl[k], cl[i] = cl[i], cl[k]
		permute(cl, k+1, visit)
		cl[k], cl[i] = cl[i], cl[k]
	}
}
