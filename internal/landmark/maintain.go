package landmark

// Incremental maintenance (Section 6.4). Edge insertions can only shorten
// distances: per landmark, a bounded relaxation BFS updates exactly the
// entries that improve (InsLM); at most one new landmark is added per
// insertion to keep the cover property (Proposition 6.2). Edge deletions
// can only lengthen distances: per landmark, the two-phase
// Ramalingam–Reps decremental SSSP first isolates the affected set (nodes
// whose every tight parent is affected) and then re-settles it with a
// priority queue seeded from unaffected neighbours (DelLM,
// Proposition 6.3). IncLM nets out a batch and replays it through the unit
// algorithms.

import (
	"container/heap"

	"gpm/internal/graph"
)

// grow takes in the nodes the graph gained since the index last looked:
// nodes are append-only and a new one has no edges yet, so it is no landmark
// and unreachable from and to every landmark.
func (ix *Index) grow() {
	for n := ix.g.NumNodes(); len(ix.isLM) < n; {
		ix.isLM = append(ix.isLM, false)
		for i := range ix.lms {
			ix.distTo[i] = append(ix.distTo[i], unreachable32)
			ix.distFrom[i] = append(ix.distFrom[i], unreachable32)
		}
	}
}

// Insert applies the edge insertion (v0, v1) to the graph and incrementally
// maintains the landmark and distance vectors (InsLM). It reports whether
// the edge was new.
func (ix *Index) Insert(v0, v1 graph.NodeID) bool {
	ix.grow()
	added, err := ix.g.AddEdge(v0, v1)
	if err != nil || !added {
		return false
	}
	// Cover maintenance: a new edge must be covered. Adding either endpoint
	// keeps lm a vertex cover; pick the busier endpoint (it is likelier to
	// cover future edges too).
	if !ix.isLM[v0] && !ix.isLM[v1] {
		if ix.g.Degree(v0) >= ix.g.Degree(v1) {
			ix.addLandmark(v0)
		} else {
			ix.addLandmark(v1)
		}
	}
	out, in := ix.g.Out, ix.g.In
	for i := range ix.lms {
		// dist(lm_i → x) may drop for descendants of v1.
		ix.relax(ix.distTo[i], out, v0, v1)
		// dist(x → lm_i) may drop for ancestors of v0.
		ix.relax(ix.distFrom[i], in, v1, v0)
	}
	return true
}

// relax lowers entries of dist after an edge insertion, walking only the
// nodes that improve. dist holds distances from a fixed source and next is
// Out, or distances to a fixed target and next is In; tail and head are the
// new edge's ends in the direction of next (for In they arrive swapped).
func (ix *Index) relax(dist []int32, next func(graph.NodeID) []graph.NodeID, tail, head graph.NodeID) {
	if dist[tail] == unreachable32 || dist[tail]+1 >= dist[head] {
		return
	}
	dist[head] = dist[tail] + 1
	ix.stats.EntriesUpdated++
	queue := []graph.NodeID{head}
	for len(queue) > 0 {
		x := queue[0]
		queue = queue[1:]
		ix.stats.NodesVisited++
		nd := dist[x] + 1
		for _, w := range next(x) {
			if nd < dist[w] {
				dist[w] = nd
				ix.stats.EntriesUpdated++
				queue = append(queue, w)
			}
		}
	}
}

// Delete applies the edge deletion (v0, v1) to the graph and incrementally
// maintains the distance vectors (DelLM). The landmark vector itself never
// shrinks on deletion — a vertex cover of G is a cover of G minus an edge.
// It reports whether the edge existed.
func (ix *Index) Delete(v0, v1 graph.NodeID) bool {
	ix.grow()
	if !ix.g.RemoveEdge(v0, v1) {
		return false
	}
	for i := range ix.lms {
		ix.repair(ix.distTo[i], graph.Forward, v0, v1)
		ix.repair(ix.distFrom[i], graph.Reverse, v1, v0)
	}
	return true
}

// repair runs the two-phase decremental update on dist, a single-source
// (dir == Forward) or single-target (dir == Reverse) distance array, after
// the deletion of the edge whose tail is `tail` and head is `head` in the
// traversal direction (for Reverse they arrive pre-swapped: distances to
// the target grow along In edges).
func (ix *Index) repair(dist []int32, dir graph.Dir, tail, head graph.NodeID) {
	if dist[head] == unreachable32 || dist[tail] == unreachable32 || dist[head] != dist[tail]+1 {
		return // the deleted edge was not tight: nothing can change
	}
	down, up := ix.g.Out, ix.g.In // down: edges leaving the source side
	if dir == graph.Reverse {
		down, up = ix.g.In, ix.g.Out
	}
	hasTightParent := func(x graph.NodeID, affected map[graph.NodeID]bool) bool {
		dx := dist[x]
		for _, p := range up(x) {
			if dist[p] != unreachable32 && dist[p]+1 == dx && !affected[p] {
				return true
			}
		}
		return false
	}
	// Phase A: the affected set — nodes whose every tight parent is
	// affected. Grown from head; a node with a surviving tight parent stops
	// the propagation.
	// The walk must be breadth-first: tight parents sit exactly one level
	// below a node, and FIFO order guarantees that by the time a level-d
	// node is expanded, every affected level-d node has been discovered —
	// so the hasTightParent test never sees a stale affected set.
	affected := make(map[graph.NodeID]bool)
	if hasTightParent(head, affected) {
		return
	}
	affected[head] = true
	frontier := []graph.NodeID{head}
	for qi := 0; qi < len(frontier); qi++ {
		x := frontier[qi]
		ix.stats.NodesVisited++
		for _, c := range down(x) {
			if affected[c] || dist[c] == unreachable32 || dist[c] != dist[x]+1 {
				continue
			}
			if !hasTightParent(c, affected) {
				affected[c] = true
				frontier = append(frontier, c)
			}
		}
	}
	// Phase B: re-settle the affected set, Dijkstra-style, seeded with each
	// node's best unaffected parent.
	pq := &nodeHeap{}
	heap.Init(pq)
	best := make(map[graph.NodeID]int32, len(affected))
	for x := range affected {
		nd := unreachable32
		for _, p := range up(x) {
			if !affected[p] && dist[p] != unreachable32 && dist[p]+1 < nd {
				nd = dist[p] + 1
			}
		}
		best[x] = nd
		if nd != unreachable32 {
			heap.Push(pq, nodeDist{x, nd})
		}
		// Provisionally unreachable; settled below if reachable.
		dist[x] = unreachable32
		ix.stats.EntriesUpdated++
	}
	for pq.Len() > 0 {
		nd := heap.Pop(pq).(nodeDist)
		if dist[nd.v] != unreachable32 || nd.d != best[nd.v] {
			continue // stale entry
		}
		dist[nd.v] = nd.d
		ix.stats.EntriesUpdated++
		for _, c := range down(nd.v) {
			if _, ok := best[c]; !ok {
				continue // not affected
			}
			if dist[c] == unreachable32 && nd.d+1 < best[c] {
				best[c] = nd.d + 1
				heap.Push(pq, nodeDist{c, nd.d + 1})
			}
		}
	}
}

// Batch applies a mixed list of updates (IncLM): same-edge cancellation
// first, then deletions and insertions through the unit algorithms. It
// returns the number of updates that survived cancellation.
func (ix *Index) Batch(ups []graph.Update) int {
	ix.grow()
	net := graph.NetUpdates(ix.g, ups)
	// Deletions first: they can only lengthen distances, so the insertion
	// relaxations that follow start from conservative values and remain
	// exact.
	for _, up := range net {
		if up.Op == graph.DeleteEdge {
			ix.Delete(up.From, up.To)
		}
	}
	for _, up := range net {
		if up.Op == graph.InsertEdge {
			ix.Insert(up.From, up.To)
		}
	}
	return len(net)
}

// nodeDist is a priority-queue entry.
type nodeDist struct {
	v graph.NodeID
	d int32
}

type nodeHeap []nodeDist

func (h nodeHeap) Len() int            { return len(h) }
func (h nodeHeap) Less(i, j int) bool  { return h[i].d < h[j].d }
func (h nodeHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *nodeHeap) Push(x interface{}) { *h = append(*h, x.(nodeDist)) }
func (h *nodeHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}
