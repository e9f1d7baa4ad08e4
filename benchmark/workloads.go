package main

import (
	"fmt"
	"math/rand"
	"os"
	"time"

	"elga/internal/algorithm"
	"elga/internal/client"
	"elga/internal/cluster"
	"elga/internal/config"
	"elga/internal/consistent"
	"elga/internal/events"
	"elga/internal/graph"
	"elga/internal/profile"
	"elga/internal/streamer"
	"elga/internal/trace"
	"elga/internal/transport"
	"elga/internal/wire"
)

// workload is one named set of inputs. Every workload repeats one timed
// operation in a closed loop: one control client and one streamer, each
// waiting for its reply before the next call. Why each exists is recorded
// in BENCHMARK.json and README.md.
type workload struct {
	Name string
	// Transport is the network the cluster runs on: "inproc" or "tcp".
	Transport string
	// SameAsBSP marks the workload whose superstep the micro-pass's
	// single-threaded bsp engine repeats (same program, same graph).
	SameAsBSP bool
	setup     func(e *env) (instance, error)
}

var workloads = []workload{
	{Name: "pagerank-static", Transport: "inproc", SameAsBSP: true, setup: setupPageRank},
	{Name: "bfs-grid-tcp", Transport: "tcp", setup: setupBFS},
	{Name: "wcc-stream", Transport: "inproc", setup: setupWCCStream},
	{Name: "churn-elastic", Transport: "inproc", setup: setupChurn},
}

// runTimeout bounds one Run (the client's default is ten minutes), so a
// hung cluster fails the run well inside the driver's limit.
const runTimeout = time.Minute

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// instance is a set-up workload: a running cluster plus the inputs of
// its operations.
type instance interface {
	// core is the cluster, its control client and what loading measured.
	core() *base
	// prepare and settle run untimed before and after each op: input
	// generation and reference bookkeeping live there.
	prepare()
	// op performs the one timed operation under the span parent. It
	// returns the work units done and the wall time they are counted
	// against (0 = the whole operation).
	op(parent int) (work float64, workWall time.Duration, err error)
	settle()
	// exhausted reports that the pre-generated inputs have run out.
	exhausted() bool
	// finish runs once after the last op, before the query tail.
	finish() error
	// want is the reference answer for every queryable vertex and the
	// tolerance to compare floats with (0 = exact words).
	want() (map[graph.VertexID]algorithm.Word, float64)
	shutdown()
}

// tally accumulates what one pass's operations observed.
type tally struct {
	opMs []float64
	// work is the work units the operations did, workWall the wall time
	// they are counted against.
	work     float64
	workWall time.Duration
	// stepMs pools RunStats.StepTimes; runOverUs is Run wall − RunStats.Wall.
	stepMs    []float64
	runOverUs []float64
	// churn-elastic only: per-join migration volume and rebalance time.
	movedCopies   []float64
	movedFrac     []float64
	predictedFrac []float64
	rebalanceMs   []float64

	attempted, failed int
}

// fail counts one failed operation or check; the first few are explained.
func (t *tally) fail(format string, args ...any) {
	t.failed++
	if t.failed <= 5 {
		fmt.Fprintf(os.Stderr, "benchmark: FAILED: "+format+"\n", args...)
	}
}

func (t *tally) addRun(st *wire.RunStats, wall time.Duration) {
	for _, d := range st.StepTimes {
		t.stepMs = append(t.stepMs, ms(d))
	}
	t.runOverUs = append(t.runOverUs, us(wall-st.Wall))
}

// env is what a pass hands its workload.
type env struct {
	sc   scale
	seed int64
	// traced arms the agents' scatter-traffic ledgers; sp is nil unless
	// the pass records spans.
	traced bool
	sp     *spans
	t      *tally
}

// base is the part every workload shares: the cluster, its one control
// client and its one streamer.
type base struct {
	e  *env
	c  *cluster.Cluster
	cl *client.Client
	st *streamer.Streamer
	// loadedBytesPerCopy is elga_graph_bytes_per_edge right after the bulk
	// load: the store's footprint before any operation fragments it.
	loadedBytesPerCopy float64
}

// bootCluster starts a cluster on nw (nil = in-process). All telemetry
// planes are pinned off with explicit zero configs: nil would read ELGA_*
// from the environment.
func bootCluster(sc scale, nw transport.Network, commAccounting bool) (*cluster.Cluster, error) {
	return cluster.New(cluster.Options{
		Config: config.Default(), Network: nw, Agents: sc.Agents,
		CommAccounting: commAccounting,
		Trace:          &trace.Config{}, Events: &events.Config{}, Profile: &profile.Config{},
	})
}

// newBase boots a cluster, loads el and attaches the client and streamer.
func newBase(e *env, nw transport.Network, el graph.EdgeList) (base, error) {
	c, err := bootCluster(e.sc, nw, e.traced)
	if err != nil {
		return base{}, fmt.Errorf("boot cluster: %w", err)
	}
	b := base{e: e, c: c}
	if err := c.Load(el); err != nil {
		c.Shutdown()
		return base{}, fmt.Errorf("load %d edges: %w", len(el), err)
	}
	b.loadedBytesPerCopy = bytesPerEdgeCopy(c)
	if b.cl, err = c.NewClient(); err != nil {
		c.Shutdown()
		return base{}, fmt.Errorf("attach client: %w", err)
	}
	if b.st, err = c.NewStreamer(); err != nil {
		b.cl.Close()
		c.Shutdown()
		return base{}, fmt.Errorf("attach streamer: %w", err)
	}
	return b, nil
}

func (b *base) core() *base     { return b }
func (b *base) prepare()        {}
func (b *base) settle()         {}
func (b *base) exhausted() bool { return false }
func (b *base) finish() error   { return nil }
func (b *base) shutdown() {
	_ = b.st.Close()
	_ = b.cl.Close()
	b.c.Shutdown()
}

// timedRun issues one Run under a "run" span and tallies its statistics.
func (b *base) timedRun(spec client.RunSpec, parent int) (*wire.RunStats, error) {
	id := b.e.sp.start("run", parent)
	start := time.Now()
	st, err := b.cl.Run(spec)
	wall := time.Since(start)
	b.e.sp.end(id)
	if err != nil {
		return nil, fmt.Errorf("run %s: %w", spec.Algo, err)
	}
	b.e.t.addRun(st, wall)
	return st, nil
}

// staticRuns repeats one from-scratch Run on a fixed graph: the operation
// of pagerank-static and bfs-grid-tcp.
type staticRuns struct {
	base
	spec client.RunSpec
	// workPerStep converts supersteps to work units.
	workPerStep float64
	// wantSteps, when non-zero, is the exact superstep count of a Run.
	wantSteps uint32
	reference func() (map[graph.VertexID]algorithm.Word, float64)
}

func (r *staticRuns) op(parent int) (float64, time.Duration, error) {
	st, err := r.timedRun(r.spec, parent)
	if err != nil {
		return 0, 0, err
	}
	if r.wantSteps != 0 && st.Steps != r.wantSteps {
		r.e.t.fail("%s ran %d supersteps, want %d", r.spec.Algo, st.Steps, r.wantSteps)
	}
	if r.wantSteps == 0 && !st.Converged {
		r.e.t.fail("%s did not converge in %d supersteps", r.spec.Algo, st.Steps)
	}
	return r.workPerStep * float64(st.Steps), 0, nil
}

func (r *staticRuns) want() (map[graph.VertexID]algorithm.Word, float64) { return r.reference() }

func setupPageRank(e *env) (instance, error) {
	el := rmatGraph(e.sc, e.seed)
	b, err := newBase(e, nil, el)
	if err != nil {
		return nil, err
	}
	steps := e.sc.PageRankSteps
	return &staticRuns{
		base:        b,
		spec:        client.RunSpec{Algo: "pagerank", MaxSteps: steps, FromScratch: true, Timeout: runTimeout},
		workPerStep: float64(2 * len(el)),
		wantSteps:   steps,
		reference: func() (map[graph.VertexID]algorithm.Word, float64) {
			return algorithm.Run(algorithm.PageRank{}, el, algorithm.RunOptions{MaxSteps: steps}).State, 1e-8
		},
	}, nil
}

func setupBFS(e *env) (instance, error) {
	el, source, depth := gridGraph(e.sc.GridSide, e.seed)
	b, err := newBase(e, transport.NewTCP(), el)
	if err != nil {
		return nil, err
	}
	return &staticRuns{
		base:        b,
		spec:        client.RunSpec{Algo: "bfs", Source: source, FromScratch: true, Timeout: runTimeout},
		workPerStep: 1,
		reference: func() (map[graph.VertexID]algorithm.Word, float64) {
			want := make(map[graph.VertexID]algorithm.Word, len(depth))
			for v, d := range depth {
				want[v] = algorithm.Word(d)
			}
			return want, 0
		},
	}, nil
}

// wccStream is the update-to-answer leg: each operation streams one
// insert batch, seals it, converges WCC incrementally and queries a vertex
// the batch touched.
type wccStream struct {
	base
	batches []graph.Batch
	next    int
	rng     *rand.Rand
	// held is every edge the cluster holds; uf tracks its components.
	held graph.EdgeList
	uf   *unionFind

	probe graph.VertexID
	got   algorithm.Word
	found bool
}

func setupWCCStream(e *env) (instance, error) {
	batches, remaining := streamBatches(rmatGraph(e.sc, e.seed), e.sc.StreamBatches, e.sc.StreamBatch, e.seed)
	b, err := newBase(e, nil, remaining)
	if err != nil {
		return nil, err
	}
	w := &wccStream{base: b, batches: batches, rng: rand.New(rand.NewSource(e.seed)), held: remaining, uf: newUnionFind()}
	if _, err := b.cl.Run(client.RunSpec{Algo: "wcc", FromScratch: true, Timeout: runTimeout}); err != nil {
		b.shutdown()
		return nil, fmt.Errorf("converge initial wcc: %w", err)
	}
	for _, ed := range remaining {
		w.uf.union(ed.Src, ed.Dst)
	}
	return w, nil
}

func (w *wccStream) exhausted() bool { return w.next >= len(w.batches) }

func (w *wccStream) prepare() {
	b := w.batches[w.next]
	w.probe = b[w.rng.Intn(len(b))].Src
}

func (w *wccStream) op(parent int) (float64, time.Duration, error) {
	b, sp := w.batches[w.next], w.e.sp
	id := sp.start("stream_send", parent)
	err := w.st.SendBatch(b)
	if err == nil {
		err = w.st.Flush()
	}
	sp.end(id)
	if err != nil {
		return 0, 0, fmt.Errorf("stream batch %d: %w", w.next, err)
	}
	id = sp.start("seal", parent)
	err = w.cl.Seal()
	sp.end(id)
	if err != nil {
		return 0, 0, fmt.Errorf("seal batch %d: %w", w.next, err)
	}
	if _, err := w.timedRun(client.RunSpec{Algo: "wcc", Timeout: runTimeout}, parent); err != nil {
		return 0, 0, err
	}
	id = sp.start("query", parent)
	w.got, w.found, err = w.cl.Query(w.probe)
	sp.end(id)
	if err != nil {
		return 0, 0, fmt.Errorf("query %d: %w", w.probe, err)
	}
	return float64(len(b)), 0, nil
}

// settle folds the batch into the reference components and checks the
// answer the operation got against the label at this prefix.
func (w *wccStream) settle() {
	for _, c := range w.batches[w.next] {
		w.uf.union(c.Src, c.Dst)
		w.held = append(w.held, graph.Edge{Src: c.Src, Dst: c.Dst})
	}
	w.next++
	w.e.t.attempted++
	if want := algorithm.Word(w.uf.label(w.probe)); !w.found || w.got != want {
		w.e.t.fail("batch %d: vertex %d answered %d (found=%v), want %d", w.next-1, w.probe, w.got, w.found, want)
	}
}

func (w *wccStream) want() (map[graph.VertexID]algorithm.Word, float64) {
	return algorithm.Run(algorithm.WCC{}, w.held, algorithm.RunOptions{}).State, 0
}

// churn is the elasticity cycle: (a) one delete/insert batch applied and
// sealed, (b) an agent joins, (c) the longest-lived agent leaves.
type churn struct {
	base
	gen   *churnGen
	batch graph.Batch
	// cycles counts the cycles this cluster has been through.
	cycles int

	// What the last cycle's join moved, for settle to judge.
	members []consistent.AgentID
	joined  consistent.AgentID
	moved   uint64
	total   int
}

func setupChurn(e *env) (instance, error) {
	el := rmatGraph(e.sc, e.seed)
	b, err := newBase(e, nil, el)
	if err != nil {
		return nil, err
	}
	return &churn{base: b, gen: newChurnGen(e.sc, el, e.seed)}, nil
}

func (c *churn) prepare() { c.batch = c.gen.next(c.e.sc.ChurnBatch) }

func (c *churn) exhausted() bool { return c.cycles >= c.e.sc.ChurnCycles }

// applied sums the agents' applied-change counters; across a join the
// increase is the number of copies migration delivered.
func (c *churn) applied() (total uint64) {
	for _, a := range c.c.Agents() {
		_, n, _ := a.Stats()
		total += n
	}
	return total
}

func (c *churn) copies() (total int) {
	for _, n := range c.c.EdgeCounts() {
		total += n
	}
	return total
}

func (c *churn) op(parent int) (float64, time.Duration, error) {
	sp := c.e.sp
	c.cycles++
	start := time.Now()
	id := sp.start("churn_send", parent)
	err := c.st.SendBatch(c.batch)
	if err == nil {
		err = c.st.Flush()
	}
	sp.end(id)
	if err != nil {
		return 0, 0, fmt.Errorf("stream churn batch: %w", err)
	}
	id = sp.start("churn_seal", parent)
	err = c.cl.Seal()
	sp.end(id)
	if err != nil {
		return 0, 0, fmt.Errorf("seal churn batch: %w", err)
	}
	sendWall := time.Since(start)

	c.members = c.members[:0]
	for _, a := range c.c.Agents() {
		c.members = append(c.members, consistent.AgentID(a.ID()))
	}
	c.total = c.copies()
	before := c.applied()

	rebalance := time.Now()
	id = sp.start("join", parent)
	a, err := c.c.AddAgent()
	if err == nil {
		err = c.cl.Seal()
	}
	sp.end(id)
	if err != nil {
		return 0, 0, fmt.Errorf("join: %w", err)
	}
	c.joined = consistent.AgentID(a.ID())
	c.moved = c.applied() - before

	id = sp.start("leave", parent)
	err = c.c.RemoveAgent(0)
	if err == nil {
		err = c.cl.Seal()
	}
	sp.end(id)
	if err != nil {
		return 0, 0, fmt.Errorf("leave: %w", err)
	}
	c.e.t.rebalanceMs = append(c.e.t.rebalanceMs, ms(time.Since(rebalance)))
	return float64(len(c.batch)), sendWall, nil
}

// settle checks exactly-one-owner conservation (every live edge has one
// out copy and one in copy somewhere) and records the join's moved volume
// next to the consistent-hash ring's prediction for it.
func (c *churn) settle() {
	t := c.e.t
	t.attempted++
	if got, want := c.copies(), 2*len(c.gen.live); got != want {
		t.fail("cluster holds %d edge copies after a churn cycle, want %d", got, want)
	}
	cfg := c.c.Config()
	ring := consistent.New(c.members, consistent.Options{Virtual: cfg.Virtual, Hash: cfg.Hash})
	t.movedCopies = append(t.movedCopies, float64(c.moved))
	t.movedFrac = append(t.movedFrac, float64(c.moved)/float64(c.total))
	t.predictedFrac = append(t.predictedFrac, consistent.MovedFraction(ring, ring.WithMember(c.joined), 20000))
}

// churnCheckSteps is the length of the PageRank that checks what the churn
// left behind.
const churnCheckSteps = 10

// finish checks what the churn left behind: the coordinator's vertex count
// (the N PageRank divides by) must equal the number of vertices that still
// have an edge, and a from-scratch PageRank, which depends on every edge
// and on N, is left in the cluster for the query tail to compare.
func (c *churn) finish() error {
	st, err := c.c.Status()
	if err != nil {
		return fmt.Errorf("status: %w", err)
	}
	c.e.t.attempted++
	if want := c.gen.live.NumVertices(); st.Vertices != uint64(want) {
		c.e.t.fail("cluster counts %d vertices after %d churn cycles, the live edges have %d", st.Vertices, c.cycles, want)
	}
	_, err = c.cl.Run(client.RunSpec{Algo: "pagerank", MaxSteps: churnCheckSteps, FromScratch: true, Timeout: runTimeout})
	if err != nil {
		return fmt.Errorf("final pagerank: %w", err)
	}
	return nil
}

func (c *churn) want() (map[graph.VertexID]algorithm.Word, float64) {
	return algorithm.Run(algorithm.PageRank{}, c.gen.live, algorithm.RunOptions{MaxSteps: churnCheckSteps}).State, 1e-8
}
