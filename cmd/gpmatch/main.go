// Command gpmatch matches a pattern file against a graph file.
//
// Modes: bounded simulation (default), graph simulation, or subgraph
// isomorphism. With -updates it additionally replays an update stream
// through the corresponding incremental engine and prints ΔM per batch.
//
// Usage:
//
//	gpmatch -graph g.graph -pattern p.pattern
//	gpmatch -graph g.graph -pattern p.pattern -mode sim
//	gpmatch -graph g.graph -pattern p.pattern -oracle matrix
//	gpmatch -graph g.graph -pattern p.pattern -updates ups.txt
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"gpm"
	"gpm/internal/graph"
	"gpm/internal/par"
	"gpm/internal/pattern"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("gpmatch: ")
	var (
		gfile   = flag.String("graph", "", "data graph file")
		pfile   = flag.String("pattern", "", "pattern file")
		mode    = flag.String("mode", "bsim", "matching mode: bsim | sim | iso")
		oracle  = flag.String("oracle", "bfs", "distance oracle for bsim: bfs | matrix | 2hop | landmark")
		upsFile = flag.String("updates", "", "optional update stream to replay incrementally")
		limit   = flag.Int("limit", 0, "iso: stop after this many embeddings (0 = all)")
		quiet   = flag.Bool("quiet", false, "print only counts and timings")
		workers = flag.Int("workers", 0, "worker goroutines for parallel hot paths (0 = GOMAXPROCS, 1 = serial)")
	)
	flag.Parse()
	par.SetDefaultWorkers(*workers)
	if *gfile == "" || *pfile == "" {
		log.Fatal("-graph and -pattern are required")
	}

	g := readGraph(*gfile)
	p := readPattern(*pfile)
	fmt.Printf("graph: %d nodes, %d edges; pattern: %d nodes, %d edges\n",
		g.NumNodes(), g.NumEdges(), p.NumNodes(), p.NumEdges())

	switch *mode {
	case "iso":
		start := time.Now()
		ems := gpm.EnumerateIsomorphic(p.Normalized(), g, *limit)
		fmt.Printf("subgraph isomorphism: %d embeddings in %v\n", len(ems), time.Since(start))
		if !*quiet {
			for i, em := range ems {
				if i >= 20 {
					fmt.Printf("  … %d more\n", len(ems)-20)
					break
				}
				fmt.Printf("  %v\n", em)
			}
		}
	case "sim":
		start := time.Now()
		rel := gpm.MatchSimulation(p.Normalized(), g)
		fmt.Printf("graph simulation: %d pairs in %v\n", rel.Size(), time.Since(start))
		printRelation(rel, *quiet)
	case "bsim":
		var o gpm.DistanceOracle
		buildStart := time.Now()
		switch *oracle {
		case "bfs":
			o = nil
		case "matrix":
			o = gpm.NewDistanceMatrix(g)
		case "2hop":
			o = gpm.NewTwoHop(g)
		case "landmark":
			o = gpm.NewLandmarkIndex(g)
		default:
			log.Fatalf("unknown -oracle %q", *oracle)
		}
		if o != nil {
			fmt.Printf("oracle build (%s): %v\n", *oracle, time.Since(buildStart))
		}
		start := time.Now()
		var rel gpm.Relation
		if o == nil {
			rel = gpm.Match(p, g)
		} else {
			rel = gpm.MatchWithOracle(p, g, o)
		}
		fmt.Printf("bounded simulation: %d pairs in %v\n", rel.Size(), time.Since(start))
		printRelation(rel, *quiet)
	default:
		log.Fatalf("unknown -mode %q", *mode)
	}

	if *upsFile != "" {
		replay(p, g, *mode, *upsFile)
	}
}

func replay(p *pattern.Pattern, g *graph.Graph, mode, upsFile string) {
	f, err := os.Open(upsFile)
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	ups, err := graph.ReadUpdates(f)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nreplaying %d updates incrementally…\n", len(ups))
	switch mode {
	case "sim":
		eng, err := gpm.NewIncSimEngine(p.Normalized(), g)
		if err != nil {
			log.Fatal(err)
		}
		before := eng.Result()
		original, _, relevant := eng.MinDelta(ups) // the summary line's; the repair does not need it
		start := time.Now()
		eng.Batch(ups)
		elapsed := time.Since(start)
		removed, added := before.Diff(eng.Result())
		fmt.Printf("IncMatch: +%d −%d pairs in %v (reduced %d→%d updates)\n",
			len(added), len(removed), elapsed, original, relevant)
	case "bsim":
		eng, err := gpm.NewIncBSimEngine(p, g)
		if err != nil {
			log.Fatal(err)
		}
		before := eng.Result()
		start := time.Now()
		eng.Batch(ups)
		elapsed := time.Since(start)
		removed, added := before.Diff(eng.Result())
		fmt.Printf("IncBMatch: +%d −%d pairs in %v; stats %+v\n",
			len(added), len(removed), elapsed, eng.Stats())
	case "iso":
		eng := gpm.NewIncIsoEngine(p.Normalized(), g)
		before := eng.Count()
		start := time.Now()
		eng.Apply(ups)
		fmt.Printf("IncIsoMat: %d → %d embeddings in %v\n", before, eng.Count(), time.Since(start))
	}
}

func printRelation(rel gpm.Relation, quiet bool) {
	if quiet || rel.Empty() {
		return
	}
	for u, set := range rel {
		ids := set.Sorted()
		fmt.Printf("  pattern node %d → %d nodes:", u, len(ids))
		for i, v := range ids {
			if i >= 15 {
				fmt.Printf(" … %d more", len(ids)-15)
				break
			}
			fmt.Printf(" %d", v)
		}
		fmt.Println()
	}
}

func readGraph(path string) *graph.Graph {
	f, err := os.Open(path)
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	g, err := graph.Read(f)
	if err != nil {
		log.Fatal(err)
	}
	return g
}

func readPattern(path string) *pattern.Pattern {
	f, err := os.Open(path)
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	p, err := pattern.Parse(f)
	if err != nil {
		log.Fatal(err)
	}
	return p
}
