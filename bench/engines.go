package main

import (
	"fmt"
	"os"
	"time"

	"gpm"
	"gpm/internal/graph"
)

// engineSUT is the system of engine-unit and engine-batch: owned engines
// of the gpm façade, one per pattern, each over its own copy of the graph.
// An op is the same update batch applied to every engine in turn by one
// goroutine, so the engines and the graph they mutate do all the work and
// no registry, journal, server or client is involved.
type engineSUT struct {
	tr   *tracer
	sim  []simEngine
	bsim []bsimEngine
	iso  []isoEngine

	// Counters for the per-update ratios. updates and the pair counts
	// cover every op since setup, as the engines' own AFF statistics do;
	// the embedding count needs the unit calls and covers the unit probes.
	updates, simPairs, bsimPairs int
	isoUpdates, isoEmbeddings    int
	initial                      *gpm.Graph // the starting graph, for the HasEdge probe
}

type (
	simEngine struct {
		id string
		e  *gpm.IncSimEngine
	}
	bsimEngine struct {
		id string
		e  *gpm.IncBSimEngine
	}
	isoEngine struct {
		id string
		np int
		e  *gpm.IncIsoEngine
	}
)

func setupEngines(_ *env, g *gpm.Graph, pats []patternSpec, _ sizing, tr *tracer) (sut, error) {
	s := &engineSUT{tr: tr, initial: g}
	for _, ps := range pats {
		id := tr.start("graph.clone", "graph", -1, -1, 0)
		own := g.Clone()
		tr.end(id)
		switch ps.kind {
		case gpm.KindSim:
			id := tr.start("incsim.new", "incsim", -1, -1, 0)
			e, err := gpm.NewIncSimEngine(ps.p, own)
			tr.end(id)
			if err != nil {
				return nil, fmt.Errorf("pattern %s: %w", ps.id, err)
			}
			s.sim = append(s.sim, simEngine{ps.id, e})
		case gpm.KindBSim:
			id := tr.start("incbsim.new", "incbsim", -1, -1, 0)
			e, err := gpm.NewIncBSimEngine(ps.p, own)
			tr.end(id)
			if err != nil {
				return nil, fmt.Errorf("pattern %s: %w", ps.id, err)
			}
			s.bsim = append(s.bsim, bsimEngine{ps.id, e})
		default:
			id := tr.start("iso.new", "iso", -1, -1, 0)
			e := gpm.NewIncIsoEngine(ps.p, own)
			tr.end(id)
			s.iso = append(s.iso, isoEngine{ps.id, ps.p.NumNodes(), e})
		}
	}
	return s, nil
}

func (s *engineSUT) apply(op int, ups []gpm.Update) (uint64, error) {
	root := s.tr.start("op", benchLayer, op, -1, len(ups))
	s.updates += len(ups)
	for _, en := range s.sim {
		id := s.tr.start("incsim.batch", "incsim", op, root, len(ups))
		res := en.e.Batch(ups)
		s.tr.end(id)
		s.simPairs += res.Removed + res.Added
	}
	for _, en := range s.bsim {
		id := s.tr.start("incbsim.batch", "incbsim", op, root, len(ups))
		delta := en.e.BatchDelta(ups) // Batch is BatchDelta with the delta dropped
		s.tr.end(id)
		s.bsimPairs += delta.Size()
	}
	for _, en := range s.iso {
		id := s.tr.start("iso.batch", "iso", op, root, len(ups))
		en.e.Apply(ups)
		s.tr.end(id)
	}
	s.tr.end(root)
	return uint64(op) + 1, nil
}

func (s *engineSUT) settle(uint64) error { return nil }

func (s *engineSUT) result(id string) (gpm.Relation, error) {
	for _, en := range s.sim {
		if en.id == id {
			return en.e.Result(), nil
		}
	}
	for _, en := range s.bsim {
		if en.id == id {
			return en.e.Result(), nil
		}
	}
	for _, en := range s.iso {
		if en.id == id {
			return embeddingPairs(en.np, en.e.Embeddings()), nil
		}
	}
	return nil, fmt.Errorf("no engine for pattern %s", id)
}

func (s *engineSUT) verify() []string { return nil }

func (s *engineSUT) peakRSSMB() (float64, error) { return peakRSSMB(os.Getpid()) }

func (s *engineSUT) close() {}

// unitProbe times unit insertions and deletions on every engine: one op's
// updates fed one at a time through Insert and Delete. The result is the
// same graph a Batch call would leave, so the run goes on from it.
func (s *engineSUT) unitProbe(ups []gpm.Update) {
	s.updates += len(ups)
	for _, up := range ups {
		insert := up.Op == graph.InsertEdge
		kind := "delete"
		if insert {
			kind = "insert"
		}
		for _, en := range s.sim {
			id := s.tr.start("incsim."+kind, "incsim", -1, -1, 1)
			if insert {
				en.e.Insert(up.From, up.To)
			} else {
				en.e.Delete(up.From, up.To)
			}
			s.tr.end(id)
		}
		for _, en := range s.bsim {
			id := s.tr.start("incbsim."+kind, "incbsim", -1, -1, 1)
			if insert {
				en.e.Insert(up.From, up.To)
			} else {
				en.e.Delete(up.From, up.To)
			}
			s.tr.end(id)
		}
	}
	// The same for isomorphism, whose unit calls also say how many
	// embeddings came and went; Apply is these calls and one Commit.
	for _, en := range s.iso {
		for _, up := range ups {
			var ems []gpm.Embedding
			if up.Op == graph.InsertEdge {
				_, ems = en.e.InsertDelta(up.From, up.To)
			} else {
				_, ems = en.e.DeleteDelta(up.From, up.To)
			}
			s.isoEmbeddings += len(ems)
		}
		en.e.Commit()
		s.isoUpdates += len(ups)
	}
}

func (s *engineSUT) layers() map[string]float64 {
	out := make(map[string]float64)
	spans := s.tr.snapshot()
	perUnit := func(metric, name string) {
		if ns, units, _ := byName(spans, name); units > 0 {
			out[metric] = float64(ns) / float64(units)
		}
	}
	perCall := func(metric, name string) {
		if ns, _, count := byName(spans, name); count > 0 {
			out[metric] = float64(ns) / 1e6 / float64(count)
		}
	}
	perUnit("incsim.batch_ns_per_update", "incsim.batch")
	perUnit("incsim.insert_ns_per_update", "incsim.insert")
	perUnit("incsim.delete_ns_per_update", "incsim.delete")
	perUnit("incbsim.batch_ns_per_update", "incbsim.batch")
	perUnit("incbsim.insert_ns_per_update", "incbsim.insert")
	perUnit("incbsim.delete_ns_per_update", "incbsim.delete")
	perUnit("iso.batch_ns_per_update", "iso.batch")
	perCall("incsim.new_ms", "incsim.new")
	perCall("incbsim.new_ms", "incbsim.new")
	perCall("iso.new_ms", "iso.new")
	perCall("graph.clone_ms", "graph.clone")
	ratio := func(metric string, num float64, den int) {
		if den > 0 {
			out[metric] = num / float64(den)
		}
	}
	var simAFF, bsimAFF int64
	for _, en := range s.sim {
		simAFF += en.e.Stats().Total()
	}
	for _, en := range s.bsim {
		bsimAFF += en.e.Stats().Total()
	}
	ratio("incsim.aff_per_update", float64(simAFF), s.updates*len(s.sim))
	ratio("incsim.delta_pairs_per_update", float64(s.simPairs), s.updates*len(s.sim))
	ratio("incbsim.aff_per_update", float64(bsimAFF), s.updates*len(s.bsim))
	ratio("incbsim.delta_pairs_per_update", float64(s.bsimPairs), s.updates*len(s.bsim))
	ratio("iso.delta_embeddings_per_update", float64(s.isoEmbeddings), s.isoUpdates)
	out["graph.hasedge_ns"] = probeHasEdge(s.initial)
	return out
}

// probeHasEdge times Graph.HasEdge over a fixed set of node pairs, half of
// them edges.
func probeHasEdge(g *gpm.Graph) float64 {
	n := g.NumNodes()
	pairs := make([][2]int, 1<<16)
	for i := range pairs {
		u := (i * 7919) % n
		v := (i * 104729) % n
		if outs := g.Out(u); i%2 == 0 && len(outs) > 0 {
			v = outs[i%len(outs)]
		}
		pairs[i] = [2]int{u, v}
	}
	hits := 0
	t0 := time.Now()
	for _, p := range pairs {
		if g.HasEdge(p[0], p[1]) {
			hits++
		}
	}
	d := time.Since(t0)
	if hits == 0 {
		return 0 // no edges at all; also keeps the loop observable
	}
	return float64(d.Nanoseconds()) / float64(len(pairs))
}
