package core

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func mustAdd(t *testing.T, g *graph, u, v int, w float64) {
	t.Helper()
	if err := g.AddEdge(u, v, w); err != nil {
		t.Fatal(err)
	}
}

func TestAddEdgeValidation(t *testing.T) {
	g := newGraph(2)
	if err := g.AddEdge(-1, 0, 1); !errors.Is(err, errBadNode) {
		t.Errorf("err = %v, want errBadNode", err)
	}
	if err := g.AddEdge(0, 2, 1); !errors.Is(err, errBadNode) {
		t.Errorf("err = %v, want errBadNode", err)
	}
	if g.Edges(5) != nil {
		t.Error("Edges out of range should be nil")
	}
	if newGraph(-3).Len() != 0 {
		t.Error("negative size should clamp to 0")
	}
}

func TestDijkstraSimple(t *testing.T) {
	//      1
	//  0 -----> 1
	//  |        |
	//  4        1
	//  v        v
	//  2 <----- 3   (3->2 weight 1), plus 0->3 weight 5
	g := newGraph(4)
	mustAdd(t, g, 0, 1, 1)
	mustAdd(t, g, 1, 3, 1)
	mustAdd(t, g, 0, 2, 4)
	mustAdd(t, g, 3, 2, 1)
	mustAdd(t, g, 0, 3, 5)
	dist, prev, err := g.Dijkstra(0)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{0, 1, 3, 2}
	for i, w := range want {
		if dist[i] != w {
			t.Errorf("dist[%d] = %v, want %v", i, dist[i], w)
		}
	}
	path, err := pathTo(prev, 2)
	if err != nil {
		t.Fatal(err)
	}
	wantPath := []int{0, 1, 3, 2}
	if len(path) != len(wantPath) {
		t.Fatalf("path = %v, want %v", path, wantPath)
	}
	for i := range wantPath {
		if path[i] != wantPath[i] {
			t.Fatalf("path = %v, want %v", path, wantPath)
		}
	}
}

func TestDijkstraUnreachable(t *testing.T) {
	g := newGraph(3)
	mustAdd(t, g, 0, 1, 1)
	dist, prev, err := g.Dijkstra(0)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(dist[2], 1) {
		t.Errorf("dist[2] = %v, want +Inf", dist[2])
	}
	if prev[2] != -1 {
		t.Errorf("prev[2] = %v, want -1", prev[2])
	}
}

func TestDijkstraRejectsNegative(t *testing.T) {
	g := newGraph(2)
	mustAdd(t, g, 0, 1, -1)
	if _, _, err := g.Dijkstra(0); !errors.Is(err, errNegativeWeight) {
		t.Errorf("err = %v, want errNegativeWeight", err)
	}
}

func TestDijkstraBadSource(t *testing.T) {
	g := newGraph(2)
	if _, _, err := g.Dijkstra(7); !errors.Is(err, errBadNode) {
		t.Errorf("err = %v, want errBadNode", err)
	}
}

func TestShortestPathDAGNegativeWeights(t *testing.T) {
	// DAG with a negative edge: DP must handle it.
	g := newGraph(4)
	mustAdd(t, g, 0, 1, 2)
	mustAdd(t, g, 0, 2, 1)
	mustAdd(t, g, 1, 3, -3)
	mustAdd(t, g, 2, 3, 1)
	dist, prev, err := g.ShortestPathDAG(0)
	if err != nil {
		t.Fatal(err)
	}
	if dist[3] != -1 {
		t.Errorf("dist[3] = %v, want -1 (via negative edge)", dist[3])
	}
	path, err := pathTo(prev, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(path) != 3 || path[1] != 1 {
		t.Errorf("path = %v, want [0 1 3]", path)
	}
}

func TestShortestPathDAGRejectsBackEdge(t *testing.T) {
	g := newGraph(3)
	mustAdd(t, g, 1, 0, 1)
	if _, _, err := g.ShortestPathDAG(1); err == nil {
		t.Error("back edge accepted")
	}
	if _, _, err := g.ShortestPathDAG(9); !errors.Is(err, errBadNode) {
		t.Errorf("bad src err = %v, want errBadNode", err)
	}
}

func TestPathToErrors(t *testing.T) {
	if _, err := pathTo([]int{-1}, 3); !errors.Is(err, errBadNode) {
		t.Errorf("err = %v, want errBadNode", err)
	}
	// A predecessor cycle must be detected, not loop forever.
	if _, err := pathTo([]int{1, 0}, 0); err == nil {
		t.Error("cycle not detected")
	}
}

// Dijkstra and the DAG DP agree on random layered DAGs with
// non-negative weights (the planner's exact graph shape).
func TestDijkstraMatchesDAGDP(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	f := func(layersRaw, optsRaw uint8) bool {
		layers := int(layersRaw%6) + 2
		opts := int(optsRaw%4) + 1
		// Nodes: 0 = source, then layers x opts, then sink.
		n := 2 + layers*opts
		g := newGraph(n)
		node := func(layer, opt int) int { return 1 + layer*opts + opt }
		for o := 0; o < opts; o++ {
			if g.AddEdge(0, node(0, o), rng.Float64()*5) != nil {
				return false
			}
		}
		for l := 0; l+1 < layers; l++ {
			for a := 0; a < opts; a++ {
				for b := 0; b < opts; b++ {
					if g.AddEdge(node(l, a), node(l+1, b), rng.Float64()*5) != nil {
						return false
					}
				}
			}
		}
		for o := 0; o < opts; o++ {
			if g.AddEdge(node(layers-1, o), n-1, 0) != nil {
				return false
			}
		}
		d1, _, err1 := g.Dijkstra(0)
		d2, _, err2 := g.ShortestPathDAG(0)
		if err1 != nil || err2 != nil {
			return false
		}
		for i := range d1 {
			if math.IsInf(d1[i], 1) != math.IsInf(d2[i], 1) {
				return false
			}
			if !math.IsInf(d1[i], 1) && math.Abs(d1[i]-d2[i]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Cross-check against brute-force enumeration on tiny layered DAGs.
func TestDijkstraMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	const layers, opts = 4, 3
	for trial := 0; trial < 20; trial++ {
		n := 2 + layers*opts
		g := newGraph(n)
		node := func(l, o int) int { return 1 + l*opts + o }
		w0 := make([]float64, opts)
		w := make([][][]float64, layers-1)
		for o := 0; o < opts; o++ {
			w0[o] = rng.Float64() * 3
			mustAdd(t, g, 0, node(0, o), w0[o])
		}
		for l := range w {
			w[l] = make([][]float64, opts)
			for a := 0; a < opts; a++ {
				w[l][a] = make([]float64, opts)
				for b := 0; b < opts; b++ {
					w[l][a][b] = rng.Float64() * 3
					mustAdd(t, g, node(l, a), node(l+1, b), w[l][a][b])
				}
			}
		}
		for o := 0; o < opts; o++ {
			mustAdd(t, g, node(layers-1, o), n-1, 0)
		}
		dist, _, err := g.Dijkstra(0)
		if err != nil {
			t.Fatal(err)
		}
		// Brute force: enumerate all opts^layers sequences.
		best := math.Inf(1)
		var enumerate func(layer, prevOpt int, cost float64)
		enumerate = func(layer, prevOpt int, cost float64) {
			if layer == layers {
				if cost < best {
					best = cost
				}
				return
			}
			for o := 0; o < opts; o++ {
				c := cost
				if layer == 0 {
					c += w0[o]
				} else {
					c += w[layer-1][prevOpt][o]
				}
				enumerate(layer+1, o, c)
			}
		}
		enumerate(0, -1, 0)
		if math.Abs(dist[n-1]-best) > 1e-9 {
			t.Fatalf("trial %d: Dijkstra %v != brute force %v", trial, dist[n-1], best)
		}
	}
}

func TestReserve(t *testing.T) {
	g := newGraph(3)
	g.Reserve(0, 8)
	for i := 0; i < 8; i++ {
		if err := g.AddEdge(0, 1, float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if got := len(g.Edges(0)); got != 8 {
		t.Errorf("edges = %d, want 8", got)
	}
	// Reserving below current capacity or out of range is a no-op.
	g.Reserve(0, 1)
	g.Reserve(-1, 4)
	g.Reserve(99, 4)
	if got := len(g.Edges(0)); got != 8 {
		t.Errorf("edges after no-op reserves = %d, want 8", got)
	}
}
