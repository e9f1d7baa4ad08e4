package agent

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"unsafe"

	"elga/internal/algorithm"
	"elga/internal/config"
	"elga/internal/consistent"
	"elga/internal/graph"
	"elga/internal/wire"
)

// orientedWCC scatters both ways and adjusts per edge with a value that
// names the edge's endpoints in order, so a loop that walks the right
// neighbours but turns an edge around is caught too.
type orientedWCC struct{ algorithm.WCC }

func (orientedWCC) AdjustPerEdge(u, v graph.VertexID, w algorithm.Word) algorithm.Word {
	return w + algorithm.Word(u)*1000003 + algorithm.Word(v)
}

// emitted is one scattered message as a sink sees it.
type emitted struct {
	dst int
	m   wire.VertexMsg
}

func sortEmitted(es []emitted) {
	slices.SortFunc(es, func(x, y emitted) int {
		if x.dst != y.dst {
			return x.dst - y.dst
		}
		if x.m.Via != y.m.Via {
			return int(int64(x.m.Via) - int64(y.m.Via))
		}
		if x.m.Target != y.m.Target {
			return int(int64(x.m.Target) - int64(y.m.Target))
		}
		return int(int64(x.m.Value) - int64(y.m.Value))
	})
}

// messageFor is an arbitrary per-vertex message value.
func messageFor(v graph.VertexID) algorithm.Word { return algorithm.Word(v*31 + 5) }

// referenceScatter is the loop the plan replaces: every stored neighbour of
// every vertex through the store's cursor, every edge resolved through the
// route table, v sending mv(v).
func referenceScatter(a *Agent, verts []graph.VertexID, mv func(graph.VertexID) algorithm.Word) []emitted {
	var out []emitted
	adj := a.run.adjust
	for _, v := range verts {
		mv := mv(v)
		for it := a.store.OutCursor(v); ; {
			w, ok := it.Next()
			if !ok {
				break
			}
			if dst, ok := a.router.EdgeOwnerIndex(w, v); ok {
				out = append(out, emitted{dst, wire.VertexMsg{Target: w, Via: v, Value: wire.Word(adj.AdjustPerEdge(v, w, mv))}})
			}
		}
		for it := a.store.InCursor(v); ; {
			u, ok := it.Next()
			if !ok {
				break
			}
			if dst, ok := a.router.EdgeOwnerIndex(u, v); ok {
				out = append(out, emitted{dst, wire.VertexMsg{Target: u, Via: v, Value: wire.Word(adj.AdjustPerEdge(u, v, mv))}})
			}
		}
	}
	sortEmitted(out)
	return out
}

// takeShard empties the agent's shard and returns what it held, sorted.
func takeShard(s *computeShard) []emitted {
	var out []emitted
	for dst, msgs := range s.bufs {
		for _, m := range msgs {
			out = append(out, emitted{dst, m})
		}
	}
	s.reset()
	sortEmitted(out)
	return out
}

// walkScatter runs scatter over verts into the agent's shard, as a compute
// phase's walk does, and returns what the shard collected.
func walkScatter(a *Agent, verts []graph.VertexID) []emitted {
	s := a.sink()
	for _, v := range verts {
		a.scatter(s, v, messageFor(v))
	}
	return takeShard(s)
}

// planRig drives one agent's store and router through a random script.
type planRig struct {
	t     *testing.T
	a     *Agent
	cfg   config.Config
	rng   *rand.Rand
	epoch uint64
	ids   []uint64 // installed membership
	hot   map[graph.VertexID]uint32
	// planned counts vertex-directions checked while a plan covered them,
	// stamped the records checked while their split-ness stamp was current.
	planned, stamped int
}

const planVertices = 120

func (r *planRig) vertex() graph.VertexID {
	if r.rng.Intn(3) == 0 {
		return graph.VertexID(r.rng.Intn(4)) // a few vertices take most edges
	}
	return graph.VertexID(r.rng.Intn(planVertices))
}

// install publishes a view of r.ids whose sketch counts r.hot.
func (r *planRig) install() {
	r.epoch++
	sk := r.cfg.NewSketch()
	for v, n := range r.hot {
		sk.AddN(uint64(v), n)
	}
	data, err := sk.MarshalBinary()
	if err != nil {
		r.t.Fatal(err)
	}
	v := &wire.View{Epoch: r.epoch, BatchID: r.epoch, Sketch: data}
	for _, id := range r.ids {
		v.Agents = append(v.Agents, wire.AgentInfo{ID: id, Addr: fmt.Sprintf("peer-%d", id)})
	}
	if _, err := r.a.installView(v); err != nil {
		r.t.Fatal(err)
	}
}

func (r *planRig) step() string {
	s := r.a.store
	switch op := r.rng.Intn(8); op {
	case 0: // bulk load
		for i := 0; i < 200; i++ {
			u, v := r.vertex(), r.vertex()
			s.AddEdge(u, v, graph.Out)
			s.AddEdge(u, v, graph.In)
		}
		return "load"
	case 1:
		s.Compact()
		return "compact"
	case 2: // tail inserts and deletes on a few vertices
		for i := 0; i < 12; i++ {
			u, v := r.vertex(), r.vertex()
			dir := graph.Dir(r.rng.Intn(2))
			if r.rng.Intn(2) == 0 {
				s.AddEdge(u, v, dir)
			} else {
				s.RemoveEdge(u, v, dir)
			}
		}
		return "tail"
	case 3: // sketch-only view: a vertex crosses a replica bucket
		v := r.vertex()
		r.hot[v] = uint32(r.rng.Intn(5)) * uint32(r.cfg.ReplicationThreshold)
		r.install()
		if _, sketchOnly := r.a.router.Rerouted(); !sketchOnly {
			r.t.Fatal("a sketch change installed as a membership change")
		}
		return "sketch"
	case 4: // membership view
		n := 1 + r.rng.Intn(7)
		if r.rng.Intn(6) == 0 {
			n = 300 // more members than a plan byte can name
		}
		r.ids = r.ids[:0]
		for id := uint64(1); len(r.ids) < n; id++ {
			if n == 300 || r.rng.Intn(2) == 0 {
				r.ids = append(r.ids, id)
			}
		}
		r.install()
		return fmt.Sprintf("members=%d", n)
	case 5:
		s.DropVertex(r.vertex())
		return "drop"
	case 6: // a migrated run arrives
		nbrs := make([]graph.VertexID, 0, 8)
		for i := 0; i < 8; i++ {
			nbrs = append(nbrs, r.vertex())
		}
		slices.Sort(nbrs)
		s.AddRun(r.vertex(), graph.Dir(r.rng.Intn(2)), slices.Compact(nbrs))
		return "addrun"
	default:
		s.MaybeCompact()
		return "maybe-compact"
	}
}

// check asserts that scatter emits what the reference loop emits, twice:
// the first pass fills whatever the last step cleared, the second only reads.
func (r *planRig) check(script int, trail []string) {
	a := r.a
	a.syncPlan()
	if members := a.router.NumAgents(); members > planMembers || members == 0 {
		if a.plan.dir[graph.Out] != nil || a.plan.dir[graph.In] != nil {
			r.t.Fatalf("script %d %v: a plan exists under %d members", script, trail, members)
		}
	} else {
		for _, dir := range []graph.Dir{graph.Out, graph.In} {
			if len(a.plan.dir[dir]) != a.store.SealedLen(dir) {
				r.t.Fatalf("script %d %v: plan covers %d of %d sealed entries",
					script, trail, len(a.plan.dir[dir]), a.store.SealedLen(dir))
			}
		}
	}
	verts := a.store.VertexList()
	want := referenceScatter(a, verts, messageFor)
	for pass := 0; pass < 2; pass++ {
		if got := walkScatter(a, verts); !slices.Equal(got, want) {
			r.t.Fatalf("script %d %v pass %d: scatter emitted %d messages, the table loop %d",
				script, trail, pass, len(got), len(want))
		}
	}
	for _, v := range verts {
		for _, dir := range []graph.Dir{graph.Out, graph.In} {
			if run, _, whole := sealedRun(a.store, v, dir); whole && len(run) > 0 && a.plan.dir[dir] != nil {
				r.planned++
			}
		}
	}
}

// degreeProbe is orientedWCC whose every vertex updates to messageFor and
// stays active, and whose message value names the out-degree it was given,
// so a compute phase that read a wrong degree or a wrong run is caught.
type degreeProbe struct{ orientedWCC }

func (degreeProbe) Update(v graph.VertexID, _, _ algorithm.Word, _ bool, _ *algorithm.Context) (algorithm.Word, bool) {
	return messageFor(v), true
}

func (degreeProbe) MessageValue(_ graph.VertexID, w algorithm.Word, outDeg uint64, _ *algorithm.Context) algorithm.Word {
	return w*7 + algorithm.Word(outDeg)
}

// partialOf is what a replica's compute duty tells the master of a split
// vertex in this test (no mail, so no aggregate).
type partialOf struct {
	v      graph.VertexID
	outDeg uint64
}

// walkCompute runs a compute phase's walk over verts, with an empty mail,
// and returns the messages the shard collected and the replica partials
// stashed here (a.partials) or buffered for the other masters
// (a.hubPartials), taking all of them back.
func walkCompute(a *Agent, verts []graph.VertexID) ([]emitted, []partialOf) {
	t := &a.verts
	t.begin(setWork)
	for _, v := range verts {
		t.mark(setWork, t.at(v))
	}
	t.begin(setActive)
	s, step, self := a.sink(), a.run.step, consistent.AgentID(a.id)
	for _, i := range t.list[setWork] {
		a.computeVertex(s, i, &slotMail{}, self)
	}
	msgs := takeShard(s)
	var parts []partialOf
	for v, p := range a.partials[step] {
		parts = append(parts, partialOf{v, p.outDeg})
	}
	a.recyclePartials(a.partials[step])
	delete(a.partials, step)
	for at, f := range a.hubPartials {
		if f.buf == nil {
			continue
		}
		a.hubPartials[at] = hubFrame{}
		pkt := &wire.Packet{}
		if err := wire.FinishFrame(f.buf); err != nil {
			panic(err)
		}
		if err := wire.UnmarshalPacketInto(pkt, f.buf, nil); err != nil {
			panic(err)
		}
		n, _ := wire.ReplicaPartialCount(pkt.Payload)
		for k := 0; k < n; k++ {
			p := wire.ReplicaPartialAt(pkt.Payload, k)
			parts = append(parts, partialOf{p.Vertex, p.LocalOutDeg})
		}
	}
	slices.SortFunc(parts, func(x, y partialOf) int { return int(int64(x.v) - int64(y.v)) })
	return msgs, parts
}

// checkCompute asserts the compute phase's cached facts against the model,
// twice: the first pass stamps whatever the last step made stale, the second
// only reads. A vertex is split when the router says so, and then sends its
// master its out-degree; any other scatters along the cursor's neighbours a
// value made from its out-degree. Every stamped record's split bit is the
// router's, and RunsInto reads what SealedRun, Degree and the cursor do.
func (r *planRig) checkCompute(script int, trail []string) {
	a := r.a
	a.syncPlan()
	verts := a.store.VertexList()
	var plain []graph.VertexID
	var wantParts []partialOf
	for _, v := range verts {
		if !a.router.Split(v) {
			plain = append(plain, v)
		} else if _, ok := a.router.Master(v); ok {
			wantParts = append(wantParts, partialOf{v, outDegree(a.store, v)})
		}
	}
	want := referenceScatter(a, plain, func(v graph.VertexID) algorithm.Word {
		return a.run.prog.MessageValue(v, messageFor(v), outDegree(a.store, v), &a.run.ctx)
	})
	for pass := 0; pass < 2; pass++ {
		got, parts := walkCompute(a, verts)
		if !slices.Equal(got, want) {
			r.t.Fatalf("script %d %v pass %d: compute emitted %d messages, the model %d",
				script, trail, pass, len(got), len(want))
		}
		if !slices.Equal(parts, wantParts) {
			r.t.Fatalf("script %d %v pass %d: compute sent partials %v, the model %v",
				script, trail, pass, parts, wantParts)
		}
	}
	r.checkStamps(script, trail)
	type runKey struct {
		v   graph.VertexID
		dir graph.Dir
	}
	sealed := map[runKey][]graph.VertexID{}
	a.store.SealedRuns(func(v graph.VertexID, dir graph.Dir, run []graph.VertexID) bool {
		sealed[runKey{v, dir}] = run
		return true
	})
	for _, v := range append(verts, planVertices) { // planVertices is never stored
		var runs graph.VertexRuns
		a.store.RunsInto(&runs, v)
		if out, in := a.store.Degree(v); runs.Deg != [2]int{out, in} {
			r.t.Fatalf("script %d %v: vertex %d degrees %v, Degree (%d, %d)", script, trail, v, runs.Deg, out, in)
		}
		for _, dir := range []graph.Dir{graph.Out, graph.In} {
			run, off, whole := runs.Run[dir], runs.Off[dir], runs.Whole[dir]
			if !slices.Equal(run, sealed[runKey{v, dir}]) || off+len(run) > a.store.SealedLen(dir) {
				r.t.Fatalf("script %d %v: vertex %d dir %d run %v at %d, SealedRuns %v over %d entries",
					script, trail, v, dir, run, off, sealed[runKey{v, dir}], a.store.SealedLen(dir))
			}
			it := a.store.OutCursor(v)
			if dir == graph.In {
				it = a.store.InCursor(v)
			}
			var nbrs []graph.VertexID
			for w, ok := it.Next(); ok; w, ok = it.Next() {
				nbrs = append(nbrs, w)
			}
			if runs.Deg[dir] != len(nbrs) || whole && !slices.Equal(run, nbrs) {
				r.t.Fatalf("script %d %v: vertex %d dir %d degree %d, whole=%v run %v, the cursor %v",
					script, trail, v, dir, runs.Deg[dir], whole, run, nbrs)
			}
		}
	}
}

// checkStamps checks every record stamped under the installed view: its split
// bit equals router.Split and its replica bit router.IsReplica.
func (r *planRig) checkStamps(script int, trail []string) {
	a, t := r.a, &r.a.verts
	for i := range t.slots {
		rec := &t.slots[i]
		if rec.flags == 0 || rec.view&^viewAnswers != t.view {
			continue
		}
		r.stamped++
		split, replica := rec.view&viewSplit != 0, rec.view&viewReplica != 0
		if split != a.router.Split(rec.key) || replica != a.isReplicaOf(rec.key) {
			r.t.Fatalf("script %d %v: vertex %d's record says split=%v replica=%v, the router %v %v",
				script, trail, rec.key, split, replica, a.router.Split(rec.key), a.isReplicaOf(rec.key))
		}
	}
}

// sealedRun returns v's sealed run in direction dir, its offset, and whether
// it is all of v's neighbours there, as RunsInto reports them.
func sealedRun(s *graph.Store, v graph.VertexID, dir graph.Dir) (run []graph.VertexID, off int, whole bool) {
	var r graph.VertexRuns
	s.RunsInto(&r, v)
	return r.Run[dir], r.Off[dir], r.Whole[dir]
}

// outDegree is v's local out-degree, as a message value takes it.
func outDegree(s *graph.Store, v graph.VertexID) uint64 {
	out, _ := s.Degree(v)
	return uint64(out)
}

// newPlanRig is a fresh agent running prog (adjusting per edge) under a view
// of four members, and the rig that drives it with the script's seed.
func newPlanRig(t *testing.T, cfg config.Config, script int, prog interface {
	algorithm.Program
	algorithm.PerEdgeAdjuster
}) *planRig {
	a := newLoopbackAgent(t, cfg, planVertices)
	installRun(a, prog, planVertices)
	a.run.adjust = prog
	a.store.SetCompactMin(64 + script%200)
	r := &planRig{t: t, a: a, cfg: cfg, rng: rand.New(rand.NewSource(int64(script))),
		epoch: 1, ids: []uint64{1, 2, 3, 4}, hot: map[graph.VertexID]uint32{}}
	r.install()
	return r
}

// planConfig splits a vertex at 16 edge copies, up to four ways.
func planConfig() config.Config {
	cfg := allocTestConfig()
	cfg.ReplicationThreshold, cfg.MaxReplicas = 16, 4
	return cfg
}

// TestComputeCacheMatchesModel: through the plan rig's random scripts — bulk
// load, compaction, tail edits, a sketch-only view that crosses a bucket, a
// membership view, dropped vertices and arriving runs — a compute phase's
// walk emits exactly the (destination, target, via, value) multiset of the cursor + EdgeOwnerIndex
// loop, sends every split vertex's partial with the right out-degree, leaves
// every stamped record's split and replica bits equal to router.Split and
// router.IsReplica, and RunsInto reads what SealedRuns, Degree and the cursor
// read.
func TestComputeCacheMatchesModel(t *testing.T) {
	stamped, split := 0, 0
	for script := 0; script < 200; script++ {
		r := newPlanRig(t, planConfig(), script, degreeProbe{})
		var trail []string
		for i := 0; i < 10; i++ {
			trail = append(trail, r.step())
			r.checkCompute(script, trail)
			for _, v := range r.a.store.VertexList() {
				if r.a.router.Split(v) {
					split++
				}
			}
		}
		stamped += r.stamped
	}
	if stamped == 0 || split == 0 {
		t.Fatalf("%d stamped records, %d split vertices checked: the test checks nothing", stamped, split)
	}
}

// TestVertexRecordIs24Bytes: the view stamp lives in the record's padding,
// and a wrapped stamp clears every record's.
func TestVertexRecordIs24Bytes(t *testing.T) {
	if n := unsafe.Sizeof(vertexRec{}); n != 24 {
		t.Fatalf("vertexRec is %d bytes, want 24", n)
	}
	var vt vertexTable
	i := vt.at(5)
	vt.slots[i].view = vt.view | viewAnswers
	for n := 0; n < 1<<14-1; n++ {
		vt.restamp()
	}
	if vt.view == 0 || vt.slots[i].view != 0 {
		t.Fatalf("after a wrap: table stamp %d, record %#x", vt.view, vt.slots[i].view)
	}
}

// TestPlanScatterEqualsTableScatter: through random scripts of everything
// that can move the store's sealed layout or the view — bulk load, compaction,
// tail edits, a sketch-only view that crosses a bucket, a membership view
// (some too large for a plan), dropped vertices and arriving runs — the
// plan-driven scatter emits exactly the (destination, target, via, value)
// multiset of the cursor + EdgeOwnerIndex loop, in both directions.
func TestPlanScatterEqualsTableScatter(t *testing.T) {
	planned := 0
	for script := 0; script < 320; script++ {
		r := newPlanRig(t, planConfig(), script, orientedWCC{})
		var trail []string
		for i := 0; i < 10; i++ {
			trail = append(trail, r.step())
			r.check(script, trail)
		}
		planned += r.planned
	}
	if planned == 0 {
		t.Fatal("no script ever scattered through a plan")
	}
}

// TestPlanNoOwnerByteSendsNothing: an edge whose plan byte says it has no
// owner is skipped, as the table loop skips an edge EdgeOwnerIndex cannot
// place.
func TestPlanNoOwnerByteSendsNothing(t *testing.T) {
	a := newLoopbackAgent(t, allocTestConfig(), 8)
	installRun(a, algorithm.PageRank{}, 8)
	for w := graph.VertexID(1); w <= 5; w++ {
		a.store.AddEdge(0, w, graph.Out)
	}
	a.store.AddEdge(7, 0, graph.Out)
	a.store.Compact()
	a.syncPlan()
	verts := []graph.VertexID{0, 7}
	if got := walkScatter(a, verts); len(got) != 6 {
		t.Fatalf("%d messages scattered, want 6", len(got))
	}
	run, off, _ := sealedRun(a.store, 0, graph.Out)
	for i := range run {
		a.plan.dir[graph.Out][off+i] = planNoOwner
	}
	got := walkScatter(a, verts)
	if len(got) != 1 || got[0].m.Via != 7 {
		t.Fatalf("after marking vertex 0's edges ownerless: %+v", got)
	}
}
