package gpm_test

import (
	"testing"

	"gpm"
)

// buildExample constructs the doc-comment example: a boss overseeing an
// assistant manager.
func buildExample() (*gpm.Pattern, *gpm.Graph, gpm.NodeID, gpm.NodeID) {
	g := gpm.NewGraph()
	boss := g.AddNode(gpm.NewTuple("label", `"B"`))
	am := g.AddNode(gpm.NewTuple("label", `"AM"`))
	g.AddEdge(boss, am)

	p := gpm.NewPattern()
	b := p.AddNode(gpm.Label("B"))
	a := p.AddNode(gpm.Label("AM"))
	p.AddEdge(b, a, 1)
	return p, g, boss, am
}

func TestFacadeMatch(t *testing.T) {
	p, g, boss, am := buildExample()
	r := gpm.Match(p, g)
	if !r.Has(0, boss) || !r.Has(1, am) {
		t.Fatalf("match = %v", r)
	}
	if !gpm.MatchSimulation(p, g).Equal(r) {
		t.Fatal("simulation should agree on a normal pattern")
	}
}

func TestFacadeOracles(t *testing.T) {
	p, g, _, _ := buildExample()
	want := gpm.Match(p, g)
	for name, o := range map[string]gpm.DistanceOracle{
		"matrix":    gpm.NewDistanceMatrix(g),
		"twohop":    gpm.NewTwoHop(g),
		"landmarks": gpm.NewLandmarkIndex(g),
	} {
		if got := gpm.MatchWithOracle(p, g, o); !got.Equal(want) {
			t.Fatalf("%s oracle: %v != %v", name, got, want)
		}
	}
}

func TestFacadeIncrementalEngines(t *testing.T) {
	p, g, boss, am := buildExample()
	eng, err := gpm.NewIncSimEngine(p, g.Clone())
	if err != nil {
		t.Fatal(err)
	}
	if eng.Result().Empty() {
		t.Fatal("initial incremental match empty")
	}
	eng.Delete(boss, am)
	if !eng.Result().Empty() {
		t.Fatal("match should collapse after deleting the only edge")
	}

	beng, err := gpm.NewIncBSimEngine(p, g.Clone())
	if err != nil {
		t.Fatal(err)
	}
	if beng.Result().Empty() {
		t.Fatal("initial bounded incremental match empty")
	}
}

func TestFacadeIsomorphism(t *testing.T) {
	p, g, _, _ := buildExample()
	ems := gpm.EnumerateIsomorphic(p, g, 0)
	if len(ems) != 1 {
		t.Fatalf("embeddings = %d, want 1", len(ems))
	}
	eng := gpm.NewIncIsoEngine(p, g)
	if eng.Count() != 1 {
		t.Fatalf("incremental count = %d, want 1", eng.Count())
	}
}

func TestFacadeResultGraphs(t *testing.T) {
	p, g, boss, am := buildExample()
	r := gpm.Match(p, g)
	rg := gpm.BoundedResultGraph(p, g, r)
	if !rg.HasEdge(boss, am) {
		t.Fatal("result graph missing projected edge")
	}
	rg2 := gpm.SimulationResultGraph(p, g, r)
	if !rg2.HasEdge(boss, am) {
		t.Fatal("simulation result graph missing edge")
	}
}

func TestFacadeUpdates(t *testing.T) {
	up := gpm.Insert(1, 2)
	if up.Inverse() != gpm.Delete(1, 2) {
		t.Fatal("Inverse broken")
	}
}
