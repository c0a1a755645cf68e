package core

// The shortest-path formulation of the paper's optimal bitrate planner
// (Section IV-A), kept as PlanOptimal's test oracle: a directed graph
// with binary-heap Dijkstra, and a topological-order DP for DAGs whose
// edges only go from lower- to higher-numbered nodes (the task-layered
// graph of Fig. 4 has exactly that structure). PlanOptimal solves the
// same graph implicitly with a rolling DP, and verifyPlan
// (oracle_test.go) checks its plans against both solvers here.
// Dijkstra requires non-negative weights, which the oracle guarantees
// by shifting edge costs.

import (
	"container/heap"
	"errors"
	"fmt"
	"math"
)

// edge is a weighted directed edge.
type edge struct {
	// To is the destination node.
	To int
	// Weight is the edge cost.
	Weight float64
}

// graph is a directed graph over nodes 0..N-1.
//
// Construct with newGraph; the zero value is unusable.
type graph struct {
	adj [][]edge
}

// Errors returned by graph construction and queries.
var (
	errBadNode        = errors.New("graph: node out of range")
	errNegativeWeight = errors.New("graph: negative edge weight")
	errNoPath         = errors.New("graph: no path")
)

// newGraph returns a graph with n isolated nodes.
func newGraph(n int) *graph {
	if n < 0 {
		n = 0
	}
	return &graph{adj: make([][]edge, n)}
}

// Len returns the node count.
func (g *graph) Len() int { return len(g.adj) }

// Reserve grows node u's adjacency list capacity to hold at least n
// edges, so a caller that knows the out-degree up front (the planner's
// layered verify graph does) avoids append's incremental reallocation.
// Out-of-range nodes are ignored.
func (g *graph) Reserve(u, n int) {
	if u < 0 || u >= len(g.adj) || n <= cap(g.adj[u]) {
		return
	}
	edges := make([]edge, len(g.adj[u]), n)
	copy(edges, g.adj[u])
	g.adj[u] = edges
}

// AddEdge adds a directed edge u -> v with the given weight.
func (g *graph) AddEdge(u, v int, weight float64) error {
	if u < 0 || u >= len(g.adj) || v < 0 || v >= len(g.adj) {
		return fmt.Errorf("%w: %d -> %d of %d", errBadNode, u, v, len(g.adj))
	}
	g.adj[u] = append(g.adj[u], edge{To: v, Weight: weight})
	return nil
}

// Edges returns node u's outgoing edges (shared slice; do not modify).
func (g *graph) Edges(u int) []edge {
	if u < 0 || u >= len(g.adj) {
		return nil
	}
	return g.adj[u]
}

// item is a priority-queue entry.
type item struct {
	node int
	dist float64
}

// pq is a min-heap on dist.
type pq []item

func (q pq) Len() int            { return len(q) }
func (q pq) Less(i, j int) bool  { return q[i].dist < q[j].dist }
func (q pq) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *pq) Push(x interface{}) { *q = append(*q, x.(item)) }
func (q *pq) Pop() interface{} {
	old := *q
	n := len(old)
	it := old[n-1]
	*q = old[:n-1]
	return it
}

// Dijkstra computes single-source shortest paths from src. All edge
// weights must be non-negative. It returns per-node distances
// (math.Inf(1) when unreachable) and predecessors (-1 when none).
func (g *graph) Dijkstra(src int) (dist []float64, prev []int, err error) {
	n := len(g.adj)
	if src < 0 || src >= n {
		return nil, nil, fmt.Errorf("%w: src %d", errBadNode, src)
	}
	for u, edges := range g.adj {
		for _, e := range edges {
			if e.Weight < 0 {
				return nil, nil, fmt.Errorf("%w: %d -> %d (%v)", errNegativeWeight, u, e.To, e.Weight)
			}
		}
	}
	dist = make([]float64, n)
	prev = make([]int, n)
	done := make([]bool, n)
	for i := range dist {
		dist[i] = math.Inf(1)
		prev[i] = -1
	}
	dist[src] = 0
	q := &pq{{node: src, dist: 0}}
	for q.Len() > 0 {
		it, ok := heap.Pop(q).(item)
		if !ok {
			return nil, nil, errors.New("graph: internal heap corruption")
		}
		if done[it.node] {
			continue
		}
		done[it.node] = true
		for _, e := range g.adj[it.node] {
			if nd := it.dist + e.Weight; nd < dist[e.To] {
				dist[e.To] = nd
				prev[e.To] = it.node
				heap.Push(q, item{node: e.To, dist: nd})
			}
		}
	}
	return dist, prev, nil
}

// ShortestPathDAG computes single-source shortest paths from src by a
// topological-order DP, valid when every edge goes from a lower- to a
// higher-numbered node (returns an error otherwise). Negative weights
// are allowed.
func (g *graph) ShortestPathDAG(src int) (dist []float64, prev []int, err error) {
	n := len(g.adj)
	if src < 0 || src >= n {
		return nil, nil, fmt.Errorf("%w: src %d", errBadNode, src)
	}
	dist = make([]float64, n)
	prev = make([]int, n)
	for i := range dist {
		dist[i] = math.Inf(1)
		prev[i] = -1
	}
	dist[src] = 0
	for u := 0; u < n; u++ {
		if math.IsInf(dist[u], 1) {
			continue
		}
		for _, e := range g.adj[u] {
			if e.To <= u {
				return nil, nil, fmt.Errorf("graph: edge %d -> %d violates topological numbering", u, e.To)
			}
			if nd := dist[u] + e.Weight; nd < dist[e.To] {
				dist[e.To] = nd
				prev[e.To] = u
			}
		}
	}
	return dist, prev, nil
}

// pathTo reconstructs the path ending at dst from a predecessor array.
func pathTo(prev []int, dst int) ([]int, error) {
	if dst < 0 || dst >= len(prev) {
		return nil, fmt.Errorf("%w: dst %d", errBadNode, dst)
	}
	var rev []int
	for at := dst; at != -1; at = prev[at] {
		rev = append(rev, at)
		if len(rev) > len(prev) {
			return nil, errors.New("graph: predecessor cycle")
		}
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev, nil
}
