package agent

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"elga/internal/algorithm"
	"elga/internal/config"
	"elga/internal/consistent"
	"elga/internal/gen"
	"elga/internal/graph"
	"elga/internal/sim"
	"elga/internal/wire"
)

// mailEntry is one entry of a step's mail: its target and aggregate.
type mailEntry struct {
	key graph.VertexID
	agg algorithm.Word
}

// heldMail is step's mail at a, in first-arrival order.
func heldMail(a *Agent, step uint32) []mailEntry {
	m := mailBox(a, step)
	if m == nil {
		return nil
	}
	var out []mailEntry
	for _, i := range m.order {
		out = append(out, mailEntry{a.verts.slots[i].key, m.agg[i]})
	}
	return out
}

// modelMail is a step's mail as a plain model: per target, in the order the
// targets first arrived (or arrived again after leaving), the aggregate of
// what was gathered and merged for it.
type modelMail struct {
	keys []graph.VertexID
	agg  map[graph.VertexID]algorithm.Word
}

// gather folds a message produced here into v's aggregate, ZeroAgg if new.
func (m *modelMail) gather(prog algorithm.Program, v graph.VertexID, msg algorithm.Word) {
	w, ok := m.agg[v]
	if !ok {
		w = prog.ZeroAgg()
	}
	m.put(v, prog.Gather(w, msg))
}

// merge combines an aggregate from a peer into v's, or enters it.
func (m *modelMail) merge(prog algorithm.Program, v graph.VertexID, agg algorithm.Word) {
	if w, ok := m.agg[v]; ok {
		agg = prog.MergeAgg(w, agg)
	}
	m.put(v, agg)
}

func (m *modelMail) put(v graph.VertexID, w algorithm.Word) {
	if m.agg == nil {
		m.agg = map[graph.VertexID]algorithm.Word{}
	}
	if _, ok := m.agg[v]; !ok {
		m.keys = append(m.keys, v)
	}
	m.agg[v] = w
}

// drop removes v's entry.
func (m *modelMail) drop(v graph.VertexID) {
	if _, ok := m.agg[v]; ok {
		delete(m.agg, v)
		m.keys = slices.DeleteFunc(m.keys, func(k graph.VertexID) bool { return k == v })
	}
}

func (m *modelMail) entries() []mailEntry {
	var out []mailEntry
	for _, v := range m.keys {
		out = append(out, mailEntry{v, m.agg[v]})
	}
	return out
}

// computeMatchesPush runs compute step at a and checks that it sent and
// delivered what pushReference says the push path did: byte for byte if
// exact, else the same targets with values within 1e-12.
func computeMatchesPush(t *testing.T, a *Agent, rec *recorder, step uint32, exact bool) {
	t.Helper()
	sent := map[string]int{}
	for addr, l := range rec.to {
		sent[addr] = len(l.pkts)
	}
	advanceCompute(a, step)
	frames, mail := pushReference(a)
	n := 0
	for addr, l := range rec.to {
		for _, pkt := range l.pkts[sent[addr]:] {
			if pkt.Type != wire.TVertexMsgs {
				continue // a split hub's partial
			}
			if n++; exact && !bytes.Equal(pkt.Payload, frames[addr]) || !sameMsgs(pkt.Payload, frames[addr]) {
				t.Fatalf("step %d: the frame to %s differs from the push path's", step, addr)
			}
		}
	}
	if n != len(frames) {
		t.Fatalf("step %d sent %d frames, the push path %d", step, n, len(frames))
	}
	got := heldMail(a, step+1)
	if exact && fmt.Sprint(got) != fmt.Sprint(mail) || !sameMail(got, mail) {
		t.Fatalf("step %d: the mail holds %d entries unlike the push path's %d", step, len(got), len(mail))
	}
}

// pushShard is what the push path scattered in the step a just computed:
// every active vertex, in vertex order, into one shard.
func pushShard(a *Agent) *computeShard {
	t := &a.verts
	var work []graph.VertexID
	for _, i := range t.list[setActive] {
		if t.in(setActive, i) {
			work = append(work, t.slots[i].key)
		}
	}
	slices.Sort(work)
	s := &computeShard{}
	s.bind(a.router.Agents())
	for _, v := range work {
		a.scatter(s, v, a.messageValue(v, stateOf(a, v)))
	}
	return s
}

// pushReference is what the push path sent and delivered for the step a
// just computed: of pushShard's messages, each remote member's fold by
// target (concatFold) into one encoded TVertexMsgs payload, and the
// self-addressed ones gather into the step's mail.
func pushReference(a *Agent) (frames map[string][]byte, mail []mailEntry) {
	r, s := a.run, pushShard(a)
	frames = map[string][]byte{}
	var local modelMail
	for i, dst := range s.members {
		if dst == consistent.AgentID(a.id) {
			for _, m := range s.bufs[i] {
				local.gather(r.prog, m.Target, algorithm.Word(m.Value))
			}
			continue
		}
		if len(s.bufs[i]) > 0 {
			addr, _ := a.router.AddrOf(dst)
			frames[addr] = wire.AppendVertexMsgBatch(nil, &wire.VertexMsgBatch{Step: r.step + 1, Msgs: concatFold(r.prog, s.bufs[i])})
		}
	}
	return frames, local.entries()
}

// TestFoldLocalSurvivesATableMove: a dense fold that gives a local target
// its first record can move the vertex table mid-fold. The plan's local slots
// are then resolved again before the next write, and the step sends and
// delivers what the push path does, byte for byte; the next step rebuilds
// the plan. Two targets are routed here that the store does not hold, and
// the table is filled until the first of their records rebuilds it.
func TestFoldLocalSurvivesATableMove(t *testing.T) {
	a, rec := newRecordedAgent(t, allocTestConfig(), 1024)
	mergeView(t, a, 2, 2, 3, 4)
	rmatShare(a, 10, 8192, 3)
	v, self, added := a.store.VertexList()[0], a.selfIndex(), 0
	for w := graph.VertexID(1 << 20); added < 2; w++ {
		if at, _ := a.router.EdgeOwnerIndex(w, v); at == self {
			a.store.AddEdge(v, w, graph.Out)
			added++
		}
	}
	a.store.Compact()
	tab, n, k := &a.verts, a.store.NumVertices(), graph.VertexID(1<<30)
	for ; len(tab.slots) < 4*n; k++ {
		tab.set(k, 0) // a state keeps the record through a rebuild
	}
	for ; tab.used < len(tab.slots)/2-n; k++ {
		tab.set(k, 0)
	}
	startRun(a, algorithm.PageRank{}, 1, 1024)
	computeMatchesPush(t, a, rec, 0, true)
	if a.dense.builds != 1 || a.dense.layout == tab.layout {
		t.Fatalf("%d plans built, layout %d then %d: the fold did not move the table", a.dense.builds, a.dense.layout, tab.layout)
	}
	computeMatchesPush(t, a, rec, 1, true)
	if a.dense.builds != 2 {
		t.Fatalf("%d plans built: the plan did not follow the move", a.dense.builds)
	}
}

// rmatShare loads into a the copies of an R-MAT graph that the installed
// view places at a, and compacts: every run is whole.
func rmatShare(a *Agent, scale, edges int, seed int64) graph.EdgeList {
	el := gen.RMAT(scale, edges, gen.Graph500Params(), seed).Dedupe()
	self := a.selfIndex()
	for _, e := range el {
		if at, _ := a.router.EdgeOwnerIndex(e.Src, e.Dst); at == self {
			a.store.AddEdge(e.Src, e.Dst, graph.Out)
		}
		if at, _ := a.router.EdgeOwnerIndex(e.Dst, e.Src); at == self {
			a.store.AddEdge(e.Src, e.Dst, graph.In)
		}
	}
	a.store.Compact()
	return el
}

// splitRemoteTarget installs a view of the same members whose sketch splits
// the remote target of the plan with the most sources, one that is no source
// here, and returns it.
func splitRemoteTarget(t *testing.T, a *Agent, cfg config.Config) graph.VertexID {
	t.Helper()
	p, self := &a.dense, a.selfIndex()
	var hub graph.VertexID
	most := uint32(0)
	for i := range p.from[:len(p.from)-1] {
		for g := p.from[i]; g < p.from[i+1] && i != self; g++ {
			if w := p.msgs[g].Target; p.off[g+1]-p.off[g] > most && a.verts.find(w) < 0 {
				hub, most = w, p.off[g+1]-p.off[g]
			}
		}
	}
	sk := cfg.NewSketch()
	sk.AddN(uint64(hub), 1<<12)
	v := &wire.View{Epoch: 3, BatchID: 3, N: 64, Sketch: sk.AppendBinary(nil)}
	for _, m := range a.router.Agents() {
		addr, _ := a.router.AddrOf(m)
		v.Agents = append(v.Agents, wire.AgentInfo{ID: uint64(m), Addr: addr})
	}
	if _, err := a.installView(v); err != nil || !a.router.Split(hub) || most < 2 {
		t.Fatalf("target %d with %d sources: split %v, %v", hub, most, a.router.Split(hub), err)
	}
	return hub
}

// sameMsgs reports whether two TVertexMsgs payloads carry the same targets,
// with values within a relative 1e-12, in whatever order.
func sameMsgs(got, want []byte) bool {
	var g, w wire.VertexMsgBatch
	if wire.DecodeVertexMsgBatchInto(&g, got) != nil || wire.DecodeVertexMsgBatchInto(&w, want) != nil || len(g.Msgs) != len(w.Msgs) {
		return false
	}
	vals := map[graph.VertexID]float64{}
	for _, m := range w.Msgs {
		vals[m.Target] = algorithm.Word(m.Value).F64()
	}
	for _, m := range g.Msgs {
		y, ok := vals[m.Target]
		if !ok || math.Abs(algorithm.Word(m.Value).F64()-y) > 1e-12*math.Abs(y) {
			return false
		}
	}
	return true
}

// sameMail is sameMsgs for mail.
func sameMail(got, want []mailEntry) bool {
	vals := map[graph.VertexID]float64{}
	for _, e := range want {
		vals[e.key] = e.agg.F64()
	}
	for _, e := range got {
		y, ok := vals[e.key]
		if !ok || math.Abs(e.agg.F64()-y) > 1e-12*math.Abs(y) {
			return false
		}
	}
	return len(got) == len(want)
}

// restlessRank is PageRank whose odd vertices rest on odd steps. It does not
// halt on quiescence, so its runs are dense; a step where a planned source did
// not activate folds nothing, and the sources that did push.
type restlessRank struct{ algorithm.PageRank }

func (restlessRank) Update(v graph.VertexID, old, agg algorithm.Word, have bool, ctx *algorithm.Context) (algorithm.Word, bool) {
	w, _ := algorithm.PageRank{}.Update(v, old, agg, have, ctx)
	return w, v%2 == 0 || ctx.Step%2 == 0
}

// TestDenseStepMatchesPush: a dense step sends and delivers what the push
// path did, byte for byte — PageRank and PPR on one agent's share of an
// R-MAT graph under a view of four members, for steps 0 to 3 on one plan
// and for a step after a sketch-only view splits a target, which rebuilds
// it; and so do the steps of a program some of whose
// sources rest, which push. After a tail edit to a source mid-run the plan
// is rebuilt again and the source pushes onto its aggregates: the same
// targets, each with the same value within 1e-12; and so after the vertex
// table moved every record, which rebuilds it once more. The mixed steps of whole runs go on
// a simulated cluster of three agents and answer within 1e-8 of
// algorithm.Run: split hubs, which push; sources whose runs have a tail edit
// after a batch, which push; vertices that arrive after the build when an
// agent joins mid-run, whose view change rebuilds the plan; and BFS, which
// builds none.
func TestDenseStepMatchesPush(t *testing.T) {
	for _, prog := range []algorithm.Program{algorithm.PageRank{}, algorithm.PPR{}, restlessRank{}} {
		_, rests := prog.(restlessRank)
		t.Run(fmt.Sprintf("%T", prog), func(t *testing.T) {
			cfg := allocTestConfig()
			cfg.ReplicationThreshold, cfg.MaxReplicas = 16, 3
			a, rec := newRecordedAgent(t, cfg, 1024)
			mergeView(t, a, 2, 2, 3, 4)
			rmatShare(a, 10, 8192, 3)
			installRun(a, prog, 1024)
			a.run.ctx.Source = 1
			for step, builds := range []int{1, 1, 1, 1, 2, 3, 4} {
				exact := step < 5
				switch step {
				case 4:
					splitRemoteTarget(t, a, cfg)
				case 5:
					v := a.verts.slots[a.dense.src[0]].key
					if !a.store.AddEdge(v, 1<<20, graph.Out) {
						t.Fatal("the tail edit changed nothing")
					}
				case 6:
					for k, l := graph.VertexID(1<<21), a.verts.layout; a.verts.layout == l; k++ {
						a.verts.at(k) // records that hold nothing, until the table moves every record
					}
				}
				folds := a.dense.folds
				computeMatchesPush(t, a, rec, uint32(step), exact)
				if a.dense.builds != builds || a.dense.folds != folds+1 && !rests {
					t.Fatalf("step %d: %d plans built, want %d; %d dense folds", step, a.dense.builds, builds, a.dense.folds-folds)
				}
			}
			if rests && (a.dense.folds == 0 || a.dense.folds == 7) {
				t.Fatalf("the resting program folded %d of 7 steps: no step folded or none pushed", a.dense.folds)
			}
		})
	}
	t.Run("mixed", func(t *testing.T) {
		cfg := allocTestConfig()
		cfg.SketchWidth = 1024
		cfg.ReplicationThreshold, cfg.MaxReplicas = 16, 3
		c := bootSim(t, cfg, 3)
		el := gen.RMAT(9, 4096, gen.Graph500Params(), 7).Dedupe()
		held := el[:3*len(el)/4]
		c.insert(held)
		split := false
		for _, e := range held {
			split = split || c.agents[0].router.Split(e.Src)
		}
		if !split {
			t.Fatal("no vertex is split: the hubs' pushes go untested")
		}
		folds := c.folds()
		c.rank("pagerank", held, 10, 0)
		if after := c.folds(); after <= folds {
			t.Fatal("no agent folded a dense step")
		}

		// The rest of the edges land in tails, of held vertices and of new ones.
		c.insert(el[len(held):])
		tails := 0
		for _, a := range c.agents {
			a.store.Vertices(func(v graph.VertexID) bool {
				var runs graph.VertexRuns
				if a.store.RunsInto(&runs, v); !runs.Whole[graph.Out] {
					tails++
				}
				return true
			})
		}
		if tails == 0 {
			t.Fatal("no vertex has a tail edit: the batch's pushes go untested")
		}
		builds := c.builds()
		c.joinDuring(cfg)
		c.rank("pagerank", el, 10, 0)
		if after := c.builds(); after[0] < builds[0]+2 || after[3] == 0 {
			t.Fatalf("agent 0 built %d plans and the joiner %d in the run the join landed in: it did not land mid-run",
				after[0]-builds[0], after[3])
		}
		c.rank("ppr", el, 10, el[0].Src)

		builds = c.builds()
		c.rank("bfs", el, 0, el[0].Src)
		for i, a := range c.agents {
			if b := c.builds(); b[i] != builds[i] {
				t.Fatalf("agent %d built a plan for BFS", i)
			}
			p := &a.dense
			for _, n := range []int{bytesOf(p.src), bytesOf(p.mv), bytesOf(p.msgs), bytesOf(p.off), bytesOf(p.srcs)} {
				if n > scratchFloor {
					t.Fatalf("agent %d holds a %d B plan array after a BFS run", i, n)
				}
			}
		}
	})
}

// folds is how many dense steps the agents folded.
func (c *simCluster) folds() (n int) {
	for _, a := range c.agents {
		n += a.dense.folds
	}
	return n
}

// builds is each agent's count of plans built.
func (c *simCluster) builds() []int {
	var n []int
	for _, a := range c.agents {
		n = append(n, a.dense.builds)
	}
	return n
}

// rank runs algo from scratch for steps supersteps (0: to its end) and
// checks every vertex, read at one of its replicas, against algorithm.Run
// over el: within 1e-8 for the rank programs, exactly for the others.
func (c *simCluster) rank(algo string, el graph.EdgeList, steps uint32, source graph.VertexID) {
	c.t.Helper()
	spec := &wire.AlgoStart{Algo: algo, FromScratch: true, MaxSteps: steps, Source: source}
	wire.ReleasePacket(c.request(wire.AppendAlgoStart(c.cl.NewFrame(wire.TRunAlgo), spec), wire.TRunReply))
	c.run(func() bool {
		for _, a := range c.agents {
			if a.run != nil {
				return false
			}
		}
		return true
	})
	// A seal waits for a join's migration round, which can outlast the run.
	wire.ReleasePacket(c.request(c.cl.NewFrame(wire.TIngest), wire.TPong))
	prog, err := algorithm.New(algo)
	if err != nil {
		c.t.Fatal(err)
	}
	byID := map[consistent.AgentID]*Agent{}
	for _, a := range c.agents {
		byID[consistent.AgentID(a.id)] = a
	}
	float := !prog.HaltOnQuiescence()
	for v, want := range algorithm.Run(prog, el, algorithm.RunOptions{MaxSteps: steps, Source: source}).State {
		id, _ := c.agents[0].router.AnyReplica(v, 0)
		got, ok := byID[id].verts.get(v)
		if !ok || float && math.Abs(got.F64()-want.F64()) > 1e-8 || !float && got != want {
			c.t.Fatalf("%s: vertex %d: %v (found %v), want %v", algo, v, got, ok, want)
		}
	}
}

// joinDuring boots a fourth agent from inside agent 0's handling of its
// next Advance, so that it joins while a run is going.
func (c *simCluster) joinDuring(cfg config.Config) {
	ep := c.w.Endpoint(fmt.Sprintf("agent-%d", len(c.agents)))
	joiner := New(Options{Config: cfg, MasterAddr: "master", DirIndex: len(c.agents)}, ep)
	ep.Serve(joiner.Handle)
	first, booted := c.agents[0], false
	first.ep.(*sim.Endpoint).Serve(func(pkt *wire.Packet) bool {
		if !booted && pkt.Type == wire.TAdvance {
			booted = true
			joiner.Boot()
		}
		return first.Handle(pkt)
	})
	c.agents = append(c.agents, joiner)
}

// BenchmarkDenseFold times one dense step's fold against the push path's
// scatter and fold of the same messages, per edge, at one agent's share of
// pagerank-static (R-MAT 14 on four members: ≈ 4k sources, 29k edges).
// Neither encodes nor sends: push scatters each source into a shard, folds
// every remote member's buffer by target and gathers the local one into the
// mail; dense computes the message values and folds along the plan.
func BenchmarkDenseFold(b *testing.B) {
	for _, mode := range []string{"push", "dense"} {
		b.Run(mode, func(b *testing.B) {
			a := newLoopbackAgent(b, config.Default(), 1<<14)
			v := &wire.View{Epoch: 2, BatchID: 2, N: 1 << 14, Agents: []wire.AgentInfo{{ID: 1, Addr: a.ep.Addr()}}}
			for id := uint64(2); id <= 4; id++ {
				v.Agents = append(v.Agents, wire.AgentInfo{ID: id, Addr: fmt.Sprintf("nobody-%d", id)})
			}
			if _, err := a.installView(v); err != nil {
				b.Fatal(err)
			}
			rmatShare(a, 14, 131072, 1)
			installRun(a, algorithm.PageRank{}, 1<<14)
			advanceCompute(a, 0) // builds the plan; the sends fail at the dial
			p, s, self := &a.dense, a.sink(), consistent.AgentID(a.id)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if mode == "dense" {
					a.foldDense(s, 1, self, len(p.src)) // every source went active at step 0
				} else {
					for k, i := range p.src {
						a.scatter(s, a.verts.slots[i].key, p.mv[k])
					}
					for i, dst := range s.members {
						if dst != self {
							s.bufs[i] = a.foldByTarget(s.bufs[i][:0], s.bufs[i])
							continue
						}
						a.gatherLocal(1, s.bufs[i])
					}
					s.reset()
				}
				a.verts.mail[1].close()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(p.srcs)), "ns/edge")
			b.ReportMetric(float64(len(p.src)), "sources")
			b.ReportMetric(float64(len(p.srcs)), "edges")
		})
	}
}

// walkedWork is the work list, by key, that processCompute's walk builds for
// step at a as a stands: the active set, then the step's mail, then what
// arrived for the step before the run, then the store's active vertices, then
// for a program that never halts the local split vertices, each once.
func walkedWork(a *Agent, step uint32) []graph.VertexID {
	t, seen := &a.verts, map[graph.VertexID]bool{}
	var out []graph.VertexID
	add := func(v graph.VertexID) {
		if !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	for _, i := range t.list[setActive] {
		if t.in(setActive, i) {
			add(t.slots[i].key)
		}
	}
	for _, e := range heldMail(a, step) {
		add(e.key)
	}
	for _, e := range a.prerun {
		if e.step == step {
			add(e.msg.Target)
		}
	}
	for _, v := range a.store.ActiveList() {
		add(v)
	}
	if !a.run.prog.HaltOnQuiescence() {
		for _, v := range a.localSplits() {
			add(v)
		}
	}
	return out
}

// TestStandingWorkListMatchesWalk: a compute step whose work list stands
// (standingWork) has the list the walk would have built, slot for slot and in
// order, so nothing it computes moves. One agent of a four-member view runs
// PageRank steps under a view whose sketch counts the graph — with no split
// vertex, and with hubs split (a low threshold, the combine phase running
// after every step with split work) — while a script puts between steps
// peer frames for this step and the next, streamed inserts and deletes (tail
// edits), and views that a member joins or leaves (migrations). Every step's
// list must equal walkedWork's; and the unsplit steps between events must
// stand.
func TestStandingWorkListMatchesWalk(t *testing.T) {
	for _, tc := range []struct {
		name      string
		threshold uint64
	}{{"unsplit", 0}, {"split", 24}} {
		standing, combined := 0, 0
		for seed := int64(1); seed <= 8; seed++ {
			t.Run(fmt.Sprintf("%s/seed-%d", tc.name, seed), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed))
				cfg := allocTestConfig()
				cfg.ReplicationThreshold = tc.threshold
				a, _ := newRecordedAgent(t, cfg, 512)
				el := gen.RMAT(9, 4096, gen.Graph500Params(), seed).Dedupe()
				epoch, members := uint64(2), []uint64{2, 3, 4}
				view := func() *wire.View {
					sk := cfg.NewSketch()
					for _, e := range el {
						sk.Add(uint64(e.Src))
						sk.Add(uint64(e.Dst))
					}
					v := &wire.View{Epoch: epoch, BatchID: epoch, N: 512, Sketch: sk.AppendBinary(nil),
						Agents: []wire.AgentInfo{{ID: a.id, Addr: a.ep.Addr()}}}
					for _, id := range members {
						v.Agents = append(v.Agents, wire.AgentInfo{ID: id, Addr: fmt.Sprintf("peer-%d", id)})
					}
					return v
				}
				a.handleView(view())
				rmatShare(a, 9, 4096, seed)
				startRun(a, algorithm.PageRank{}, 1, 512)
				frame := func(step uint32) {
					msgs := make([]wire.VertexMsg, 1+rng.Intn(24))
					for i := range msgs {
						e := el[rng.Intn(len(el))]
						msgs[i] = wire.VertexMsg{Target: e.Dst, Via: e.Src, Value: wire.Word(algorithm.FromF64(rng.Float64()))}
					}
					pkt := vertexMsgPacket(step, msgs...)
					pkt.From = fmt.Sprintf("peer-%d", members[rng.Intn(len(members))])
					a.handleVertexMsgs(pkt)
				}
				edit := func(action graph.Action) {
					var cs []wire.EdgeChange
					for n := 1 + rng.Intn(4); n > 0; n-- {
						e := el[rng.Intn(len(el))]
						if action == graph.Insert {
							e.Dst = graph.VertexID(rng.Intn(1 << 10))
						}
						for _, dir := range []graph.Dir{graph.Out, graph.In} {
							cs = append(cs, wire.EdgeChange{Action: action, Src: e.Src, Dst: e.Dst, Dir: dir})
						}
					}
					a.applyChanges(cs, &ackGroup{})
				}
				quiet := false // no event since the last step
				for step := uint32(0); step < 40; step++ {
					what := "nothing"
					if step > 1 {
						switch op := rng.Intn(16); {
						case op < 4:
							what = "a frame for this step"
							frame(step)
						case op < 6:
							what = "a frame for the next step"
							frame(step + 1)
						case op == 6:
							what = "inserts"
							edit(graph.Insert)
						case op == 7:
							what = "deletes"
							edit(graph.Delete)
						case op == 8:
							epoch++
							if len(members) == 3 {
								members, what = append(members, 5), "a member joins"
							} else {
								members, what = members[:3], "a member leaves"
							}
							a.handleView(view())
						}
					}
					a.run.step = step
					stands := a.standingWork()
					if stands {
						standing++
					}
					var want []graph.VertexID
					if step > 0 {
						want = walkedWork(a, step)
					}
					advanceCompute(a, step)
					var got []graph.VertexID
					for _, i := range a.verts.list[setWork] {
						got = append(got, a.verts.slots[i].key)
					}
					if step > 0 && !slices.Equal(got, want) {
						t.Fatalf("seed %d, step %d (after %s, standing %v): the work list is\n%v\nthe walk's\n%v",
							seed, step, what, stands, got, want)
					}
					if tc.threshold == 0 && quiet && what == "nothing" && !stands {
						t.Fatalf("seed %d, step %d: the list did not stand after a quiet step", seed, step)
					}
					quiet = what == "nothing"
					if a.run.splitWork {
						combined++
						advanceCombine(a, step)
					}
				}
			})
		}
		t.Logf("%s: %d standing steps, %d combine phases", tc.name, standing, combined)
		if tc.threshold == 0 && standing == 0 || tc.threshold != 0 && combined == 0 {
			t.Fatal("the scripts missed a case: a standing list, or split work")
		}
	}
}
