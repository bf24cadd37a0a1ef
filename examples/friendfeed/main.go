// FriendFeed: the incremental-matching walkthrough of Fig. 4 / Examples
// 4.1-4.2. A b-pattern (CTOs near DB researchers and biologists) is
// matched once; as the five edges e1..e5 land one at a time, the
// incremental engine repairs the match and we watch ΔM and the affected
// area instead of recomputing from scratch.
package main

import (
	"fmt"
	"log"

	"gpm"
)

func main() {
	// Pattern P3: a CTO with a DB researcher within 2 hops and a biologist
	// within 1; the DB researcher reaches a biologist in 1 hop and a CTO
	// through any chain.
	p := gpm.NewPattern()
	cto := p.AddNode(gpm.Label("CTO"))
	db := p.AddNode(gpm.Label("DB"))
	bio := p.AddNode(gpm.Label("Bio"))
	must(p.AddEdge(cto, db, 2))
	must(p.AddEdge(cto, bio, 1))
	must(p.AddEdge(db, bio, 1))
	must(p.AddEdge(db, cto, gpm.Unbounded))

	// The FriendFeed fragment G3.
	g := gpm.NewGraph()
	names := map[gpm.NodeID]string{}
	add := func(name, job string) gpm.NodeID {
		id := g.AddNode(gpm.NewTuple("name", `"`+name+`"`, "label", `"`+job+`"`))
		names[id] = name
		return id
	}
	ann := add("Ann", "CTO")
	pat := add("Pat", "DB")
	dan := add("Dan", "DB")
	bill := add("Bill", "Bio")
	mat := add("Mat", "Bio")
	don := add("Don", "CTO")
	tom := add("Tom", "Bio")
	ross := add("Ross", "Med")
	for _, e := range [][2]gpm.NodeID{
		{ann, pat}, {ann, bill}, {pat, bill}, {pat, dan},
		{dan, mat}, {dan, ann}, {don, tom}, {tom, ross}, {ross, don},
	} {
		g.AddEdge(e[0], e[1])
	}

	// The engine maintains the match; unlike the paper's IncBMatch it keeps no
	// landmark index and measures distances by bounded walks.
	eng, err := gpm.NewIncBSimEngine(p, g)
	if err != nil {
		log.Fatal(err)
	}
	show := func(stage string) {
		fmt.Printf("%s:\n", stage)
		roles := []string{"CTO", "DB ", "Bio"}
		for u, set := range eng.Result() {
			fmt.Printf("  %s →", roles[u])
			for _, v := range set.Sorted() {
				fmt.Printf(" %s", names[v])
			}
			fmt.Println()
		}
	}
	show("initial match (Fig. 5 Gr1)")

	updates := []struct {
		label    string
		from, to gpm.NodeID
	}{
		{"e1: Ross→Dan", ross, dan},
		{"e2: Don→Pat (Example 4.2: Don becomes a CTO match)", don, pat},
		{"e3: Pat→Don", pat, don},
		{"e4: Dan→Tom", dan, tom},
		{"e5: Mat→Ross", mat, ross},
	}
	for _, up := range updates {
		before := eng.Result()
		eng.Insert(up.from, up.to)
		removed, added := before.Diff(eng.Result())
		fmt.Printf("\ninsert %s\n", up.label)
		fmt.Printf("  ΔM: +%d −%d pairs\n", len(added), len(removed))
		for _, pr := range added {
			fmt.Printf("    + (%s, %s)\n", []string{"CTO", "DB", "Bio"}[pr.U], names[pr.V])
		}
	}
	show("\nfinal match (Fig. 5 Gr3)")
	fmt.Printf("\ncumulative affected-area stats: %+v\n", eng.Stats())
	fmt.Println("note: a batch matcher would have recomputed everything five times;")
	fmt.Println("the engine touched only the affected area each time (Theorem 6.1).")
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
