package main

import (
	"encoding/binary"
	"hash/fnv"
	"math/rand"

	"elga/internal/gen"
	"elga/internal/graph"
)

// scale fixes every input size and repetition count of a run. Run length
// is set by -seconds, never by shrinking a graph.
type scale struct {
	Name string `json:"name"`
	// RMATScale/RMATEdges size the skewed graph of pagerank-static,
	// wcc-stream, churn-elastic and the layer micro-pass.
	RMATScale int `json:"rmat_scale"`
	RMATEdges int `json:"rmat_edges"`
	// PageRankSteps is the superstep count of one pagerank-static Run.
	PageRankSteps uint32 `json:"pagerank_steps"`
	// GridSide is the side of the bfs-grid-tcp grid.
	GridSide int `json:"grid_side"`
	// StreamBatches × StreamBatch edges are withheld from wcc-stream's
	// initial load and streamed back one batch per operation.
	StreamBatches int `json:"stream_batches"`
	StreamBatch   int `json:"stream_batch"`
	// ChurnBatch is the change count of one churn-elastic batch (half
	// deletes, half inserts).
	ChurnBatch int `json:"churn_batch"`
	// ChurnCycles caps the cycles one churn-elastic cluster lives through,
	// warm-up included (see README: ghost vertices).
	ChurnCycles int `json:"churn_cycles"`
	// Agents is the cluster size. A run is Rounds rounds, each a fresh
	// set-up (setup_s is their median) followed by its share of the
	// measured time; WarmOps is how many operations each set-up runs and
	// discards.
	Agents  int `json:"agents"`
	Rounds  int `json:"rounds"`
	WarmOps int `json:"warm_ops"`
	// MinTailQueries is the floor on a round's read-only query tail.
	MinTailQueries int `json:"min_tail_queries"`
	// MaxOps, when non-zero, ends a round's operation loop and query tail
	// after that many operations instead of on the clock, so the smoke
	// scale is short and its counters repeat exactly.
	MaxOps int `json:"max_ops"`
	// MicroReps/MicroRounds size the layer micro-pass.
	MicroReps   int `json:"micro_reps"`
	MicroRounds int `json:"micro_rounds"`
}

var scales = map[string]scale{
	"standard": {
		Name: "standard", RMATScale: 14, RMATEdges: 131072, PageRankSteps: 30,
		GridSide: 128, StreamBatches: 640, StreamBatch: 64,
		ChurnBatch: 4096, ChurnCycles: 60,
		Agents: 4, Rounds: 5, WarmOps: 2, MinTailQueries: 500,
		MicroReps: 5, MicroRounds: 2000,
	},
	// smoke keeps every code path and shrinks every input, for the test.
	"smoke": {
		Name: "smoke", RMATScale: 9, RMATEdges: 4096, PageRankSteps: 5,
		GridSide: 12, StreamBatches: 8, StreamBatch: 64,
		ChurnBatch: 128, ChurnCycles: 60,
		Agents: 4, Rounds: 1, WarmOps: 1, MinTailQueries: 50, MaxOps: 3,
		MicroReps: 1, MicroRounds: 20,
	},
}

// rmatGraph is the skewed Graph500 R-MAT input: hubs exceed the
// replication threshold, so vertices split across agents.
func rmatGraph(sc scale, seed int64) graph.EdgeList {
	return gen.RMAT(sc.RMATScale, sc.RMATEdges, gen.Graph500Params(), seed)
}

// gridGraph builds a side×side 4-neighbour grid with both edge directions.
// The seed relabels the cells with a random permutation (so hash placement
// differs per seed) and picks the source corner. depth[v] is the Manhattan
// distance of vertex v from the source: the closed-form BFS answer.
func gridGraph(side int, seed int64) (el graph.EdgeList, source graph.VertexID, depth map[graph.VertexID]uint64) {
	rng := rand.New(rand.NewSource(seed))
	label := rng.Perm(side * side)
	id := func(r, c int) graph.VertexID { return graph.VertexID(label[r*side+c]) }
	corner := rng.Intn(4)
	sr, sc := (corner&1)*(side-1), (corner>>1)*(side-1)
	source = id(sr, sc)
	depth = make(map[graph.VertexID]uint64, side*side)
	el = make(graph.EdgeList, 0, 4*side*(side-1))
	abs := func(x int) int {
		if x < 0 {
			return -x
		}
		return x
	}
	for r := 0; r < side; r++ {
		for c := 0; c < side; c++ {
			depth[id(r, c)] = uint64(abs(r-sr) + abs(c-sc))
			if c+1 < side {
				el = append(el, graph.Edge{Src: id(r, c), Dst: id(r, c+1)}, graph.Edge{Src: id(r, c+1), Dst: id(r, c)})
			}
			if r+1 < side {
				el = append(el, graph.Edge{Src: id(r, c), Dst: id(r+1, c)}, graph.Edge{Src: id(r+1, c), Dst: id(r, c)})
			}
		}
	}
	return el, source, depth
}

// streamBatches withholds count×size random edges from el (the paper's
// Fig. 15 change model) and returns them as shuffled insert batches plus
// the remaining graph to load first.
func streamBatches(el graph.EdgeList, count, size int, seed int64) ([]graph.Batch, graph.EdgeList) {
	_, ins, remaining := gen.SampleBatch(el, count*size, seed)
	rand.New(rand.NewSource(seed)).Shuffle(len(ins), func(i, j int) { ins[i], ins[j] = ins[j], ins[i] })
	batches := make([]graph.Batch, 0, count)
	for i := 0; i+size <= len(ins); i += size {
		batches = append(batches, ins[i:i+size])
	}
	return batches, remaining
}

// churnGen draws change batches against a tracked live edge set: deletes
// come from the live set, inserts from the absent pool, and no edge
// appears twice in one batch, so every change succeeds.
type churnGen struct {
	rng    *rand.Rand
	live   graph.EdgeList
	absent graph.EdgeList
}

// newChurnGen starts from live = el and an absent pool of further R-MAT
// edges (same shape, different seed) that are not in el.
func newChurnGen(sc scale, el graph.EdgeList, seed int64) *churnGen {
	present := make(map[graph.Edge]struct{}, len(el))
	for _, e := range el {
		present[e] = struct{}{}
	}
	var absent graph.EdgeList
	for _, e := range gen.RMAT(sc.RMATScale, sc.RMATEdges, gen.Graph500Params(), seed^0x5eed) {
		if _, ok := present[e]; !ok {
			absent = append(absent, e)
		}
	}
	return &churnGen{
		rng:    rand.New(rand.NewSource(seed)),
		live:   append(graph.EdgeList(nil), el...),
		absent: absent,
	}
}

// take removes and returns a random edge of *pool.
func (g *churnGen) take(pool *graph.EdgeList) graph.Edge {
	p := *pool
	i := g.rng.Intn(len(p))
	e := p[i]
	p[i] = p[len(p)-1]
	*pool = p[:len(p)-1]
	return e
}

// next returns a shuffled batch of n changes, half deletes of live edges
// and half inserts of absent ones, and updates the live set to match.
func (g *churnGen) next(n int) graph.Batch {
	half := n / 2
	if half > len(g.live) {
		half = len(g.live)
	}
	if half > len(g.absent) {
		half = len(g.absent)
	}
	b := make(graph.Batch, 0, 2*half)
	var deleted, inserted graph.EdgeList
	for i := 0; i < half; i++ {
		d, a := g.take(&g.live), g.take(&g.absent)
		deleted, inserted = append(deleted, d), append(inserted, a)
		b = append(b,
			graph.Change{Action: graph.Delete, Src: d.Src, Dst: d.Dst},
			graph.Change{Action: graph.Insert, Src: a.Src, Dst: a.Dst})
	}
	g.rng.Shuffle(len(b), func(i, j int) { b[i], b[j] = b[j], b[i] })
	g.live = append(g.live, inserted...)
	g.absent = append(g.absent, deleted...)
	return b
}

// edgeHash is an order-sensitive FNV-1a digest of an edge list, used to
// show that one seed always yields the same inputs.
func edgeHash(el graph.EdgeList) uint64 {
	h := fnv.New64a()
	var buf [16]byte
	for _, e := range el {
		binary.LittleEndian.PutUint64(buf[:8], uint64(e.Src))
		binary.LittleEndian.PutUint64(buf[8:], uint64(e.Dst))
		h.Write(buf[:])
	}
	return h.Sum64()
}

// unionFind tracks weakly connected components with the minimum vertex ID
// of each as its label — the independent reference for every per-batch
// answer of wcc-stream.
type unionFind struct {
	parent map[graph.VertexID]graph.VertexID
	min    map[graph.VertexID]graph.VertexID
}

func newUnionFind() *unionFind {
	return &unionFind{parent: map[graph.VertexID]graph.VertexID{}, min: map[graph.VertexID]graph.VertexID{}}
}

func (u *unionFind) find(v graph.VertexID) graph.VertexID {
	p, ok := u.parent[v]
	if !ok {
		u.parent[v], u.min[v] = v, v
		return v
	}
	if p == v {
		return v
	}
	root := u.find(p)
	u.parent[v] = root
	return root
}

func (u *unionFind) union(a, b graph.VertexID) {
	ra, rb := u.find(a), u.find(b)
	if ra == rb {
		return
	}
	u.parent[ra] = rb
	if u.min[ra] < u.min[rb] {
		u.min[rb] = u.min[ra]
	}
}

// label returns the minimum vertex ID of v's component.
func (u *unionFind) label(v graph.VertexID) graph.VertexID { return u.min[u.find(v)] }
