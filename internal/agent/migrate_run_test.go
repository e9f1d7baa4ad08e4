package agent

import (
	"encoding/binary"
	"slices"
	"testing"

	"elga/internal/algorithm"
	"elga/internal/config"
	"elga/internal/consistent"
	"elga/internal/gen"
	"elga/internal/graph"
	"elga/internal/wire"
)

// migrationRig is a recorded agent (ID 1) whose peers (IDs 2 and 3, at
// peers' addresses) are logs in its recorder, under a config that splits a
// vertex the sketch counts 10 or more times.
type migrationRig struct {
	a     *Agent
	rec   *recorder
	peers map[uint64]string
	cfg   config.Config
}

func newMigrationRig(t *testing.T) *migrationRig {
	t.Helper()
	cfg := config.Default()
	cfg.SketchWidth, cfg.SketchDepth, cfg.Virtual = 1024, 4, 16
	cfg.ReplicationThreshold, cfg.MaxReplicas = 10, 4
	a, rec := newRecordedAgent(t, cfg, 0)
	return &migrationRig{a: a, rec: rec, cfg: cfg, peers: map[uint64]string{2: "peer-2", 3: "peer-3"}}
}

// view builds a view of the given members (of 1 and the peers) whose sketch
// counts hub 35 times: three replicas' worth.
func (r *migrationRig) view(t *testing.T, epoch uint64, hub graph.VertexID, ids ...uint64) *wire.View {
	t.Helper()
	sk := r.cfg.NewSketch()
	sk.AddN(uint64(hub), 35)
	data, err := sk.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	v := &wire.View{Epoch: epoch, BatchID: epoch, Sketch: data}
	for _, id := range ids {
		addr := r.a.ep.Addr()
		if id != 1 {
			addr = r.peers[id]
		}
		v.Agents = append(v.Agents, wire.AgentInfo{ID: id, Addr: addr})
	}
	return v
}

// drain feeds the agent its acknowledgements until no send is outstanding.
func (r *migrationRig) drain(t *testing.T) {
	t.Helper()
	r.rec.ackAll(r.a)
	if n := len(r.a.reqToGroups); n > 0 {
		t.Fatalf("%d shipments never acknowledged", n)
	}
}

// received returns the frames peer id was shipped so far.
func (r *migrationRig) received(id uint64) []wire.EdgeBatch {
	return r.rec.log(r.peers[id]).batches
}

func heldCopies(s *graph.Store) map[graph.EdgeCopy]bool {
	held := map[graph.EdgeCopy]bool{}
	s.Copies(func(c graph.EdgeCopy) bool { held[c] = true; return true })
	return held
}

func keyOf(c graph.EdgeCopy) graph.VertexID {
	if c.Dir == graph.In {
		return c.Dst
	}
	return c.Src
}

// TestWholesaleRoundShipsByVertex fills a one-agent store with unsplit
// vertices, a hub and two pinned vertices, then installs a three-member
// view that also splits the hub. The per-vertex round must do what judging
// every copy on its own would: ship exactly the copies whose owner is
// another agent, each once and to that agent, as one ascending run per
// vertex, direction and destination — a share of the hub longer than
// shipChunk whole, in a frame of its own — with the vertex's state once per
// frame; keep the rest; forget the values of vertices that left entirely and
// keep the pinned ones present. A second view without this agent then makes
// everything leave.
func TestWholesaleRoundShipsByVertex(t *testing.T) {
	r := newMigrationRig(t)
	a := r.a
	const hub, pinnedHeld, pinnedEmpty = graph.VertexID(5000), graph.VertexID(6000), graph.VertexID(6001)
	for u := graph.VertexID(300); u < 600; u++ {
		a.store.AddEdge(u, u+1, graph.Out)
		a.store.AddEdge(u+7, u, graph.In)
		if u%3 == 0 {
			a.store.AddEdge(u, u+2, graph.Out)
		}
	}
	for w := graph.VertexID(10000); w < 14000; w++ { // thousands: its share spans frames
		a.store.AddEdge(hub, w, graph.Out)
		if w%2 == 0 {
			a.store.AddEdge(w, hub, graph.In)
		}
	}
	a.store.AddEdge(pinnedHeld, 1, graph.Out)
	a.store.AddEdge(2, pinnedHeld, graph.In)
	a.store.Pin(pinnedHeld)
	a.store.Pin(pinnedEmpty)
	a.store.Compact() // half the hub sealed, half of it in the tail
	for w := graph.VertexID(14000); w < 14500; w++ {
		a.store.AddEdge(hub, w, graph.Out)
	}
	a.store.Vertices(func(v graph.VertexID) bool {
		a.verts.set(v, algorithm.Word(v+7))
		return true
	})
	a.store.TakeActive()
	a.store.MarkActive(hub)
	a.store.MarkActive(301)
	before := heldCopies(a.store)

	a.handleView(r.view(t, 2, hub, 1, 2, 3))
	if _, sketchOnly := a.router.Rerouted(); sketchOnly {
		t.Fatal("the membership changed, yet the router reports a sketch-only view")
	}
	if k := a.router.Replicas(hub); k != 3 {
		t.Fatalf("hub has %d replicas, want 3", k)
	}
	r.drain(t)

	self := consistent.AgentID(a.id)
	ownerOf := func(c graph.EdgeCopy) consistent.AgentID {
		o, _ := a.router.CopyOwner(wire.EdgeChange{Src: c.Src, Dst: c.Dst, Dir: c.Dir})
		return o
	}
	shipped := map[graph.EdgeCopy]bool{}
	hubWhole := false
	for id := range r.peers {
		// One run per vertex and direction reaches each destination.
		runs := map[graph.EdgeCopy]bool{}
		for _, f := range r.received(id) {
			if len(f.Changes) != 0 {
				t.Fatalf("agent %d was shipped %d copies one by one", id, len(f.Changes))
			}
			copies := 0
			for _, run := range f.Runs {
				k := graph.EdgeCopy{Src: run.Key, Dir: run.Dir}
				if runs[k] || len(run.Nbrs) == 0 {
					t.Fatalf("agent %d was shipped vertex %d's %d-direction copies in a second or empty run", id, run.Key, run.Dir)
				}
				runs[k] = true
				copies += len(run.Nbrs)
				if run.Key == hub && len(run.Nbrs) > shipChunk {
					if len(f.Runs) != 1 {
						t.Fatalf("the hub's %d-copy run to agent %d shares its frame with %d others", len(run.Nbrs), id, len(f.Runs)-1)
					}
					hubWhole = true
				}
			}
			if copies > shipChunk && len(f.Runs) > 1 {
				t.Fatalf("a frame of %d copies in %d runs; the chunk is %d", copies, len(f.Runs), shipChunk)
			}
			// Every frame stands alone: the state of each vertex it carries
			// copies of, once.
			keyed := map[graph.VertexID]bool{}
			for _, ch := range runCopies(f.Runs) {
				c := graph.EdgeCopy{Src: ch.Src, Dst: ch.Dst, Dir: ch.Dir}
				if !before[c] {
					t.Fatalf("agent %d was shipped %+v, which was never held", id, ch)
				}
				if shipped[c] {
					t.Fatalf("copy %+v shipped twice", c)
				}
				shipped[c] = true
				if o := ownerOf(c); o != consistent.AgentID(id) {
					t.Fatalf("copy %+v shipped to agent %d, its owner is %d", c, id, o)
				}
				keyed[keyOf(c)] = true
			}
			seen := map[graph.VertexID]bool{}
			for _, st := range f.States {
				if seen[st.Vertex] || !keyed[st.Vertex] || st.State != wire.Word(st.Vertex+7) {
					t.Fatalf("agent %d got state %+v twice in a frame, without a copy of that vertex, or with the wrong value", id, st)
				}
				seen[st.Vertex] = true
				if want := st.Vertex == hub || st.Vertex == 301; st.Active != want {
					t.Fatalf("vertex %d shipped with active=%v, want %v", st.Vertex, st.Active, want)
				}
			}
			if len(seen) != len(keyed) {
				t.Fatalf("a frame to agent %d has copies of %d vertices and the states of %d", id, len(keyed), len(seen))
			}
		}
	}
	if !hubWhole {
		t.Fatal("no share of the hub outgrew shipChunk; the test wants one that travels whole")
	}
	after := heldCopies(a.store)
	for c := range before {
		if mine := ownerOf(c) == self; mine == shipped[c] || mine != after[c] {
			t.Fatalf("copy %+v: owned here=%v shipped=%v still held=%v", c, mine, shipped[c], after[c])
		}
	}
	if len(after) != len(before)-len(shipped) || len(shipped) == 0 {
		t.Fatalf("held %d, shipped %d, now hold %d", len(before), len(shipped), len(after))
	}
	hubKept, hubLeft := 0, 0
	for c := range before {
		if keyOf(c) == hub {
			if shipped[c] {
				hubLeft++
			} else {
				hubKept++
			}
		}
	}
	if a.router.IsReplica(hub, self) && (hubKept == 0 || hubLeft == 0) {
		t.Fatalf("a three-way split kept %d and shipped %d of the hub's copies", hubKept, hubLeft)
	}
	a.verts.each(func(v graph.VertexID, _ algorithm.Word) {
		if !a.store.HasVertex(v) {
			t.Fatalf("vertex %d left entirely, its value stayed", v)
		}
	})
	a.store.Vertices(func(v graph.VertexID) bool {
		if _, ok := a.verts.get(v); !ok && v != pinnedEmpty {
			t.Fatalf("vertex %d is still present, its value is gone", v)
		}
		return true
	})
	if !a.store.HasVertex(pinnedHeld) || !a.store.HasVertex(pinnedEmpty) {
		t.Fatal("a pinned vertex was dropped by the round")
	}
	if m, _ := a.router.Master(hub); m != self && a.store.HasVertex(hub) {
		regs := r.rec.log(r.peers[uint64(m)]).regs
		if !slices.Contains(regs, hub) || !a.verts.flag(hub, recRegistered) {
			t.Fatalf("the hub's master %d saw registrations %v", m, regs)
		}
	}

	// Evicted: every copy belongs to somebody else, pins or no pins.
	a.handleView(r.view(t, 3, hub, 2, 3))
	r.drain(t)
	if n := a.store.NumEdgeCopies(); n != 0 || !a.leaving {
		t.Fatalf("an evicted agent still holds %d copies (leaving=%v)", n, a.leaving)
	}
	total := 0
	for id := range r.peers {
		for _, f := range r.received(id) {
			total += len(runCopies(f.Runs))
		}
	}
	if total != len(before) {
		t.Fatalf("peers were shipped %d copies in all, the agent had held %d", total, len(before))
	}
}

// TestHubOverTheRunCapShipsInPieces: an evicted agent holding a vertex with
// more out-copies than one frame may carry of a run — partly sealed, partly in
// the tail — ships them as consecutive ascending pieces of at most
// maxShipRun, each with the vertex's state and alone in its frame when it is
// longer than shipChunk, and a store
// that adds the pieces in the order they came holds every copy.
func TestHubOverTheRunCapShipsInPieces(t *testing.T) {
	r := newMigrationRig(t)
	a := r.a
	const big, unrelated = graph.VertexID(7000), graph.VertexID(1 << 30)
	var want []graph.VertexID
	for w := graph.VertexID(10000); len(want) < 2*maxShipRun+300; w += 3 {
		want = append(want, w)
	}
	a.store.AddRun(big, graph.Out, want[:len(want)-50])
	for _, w := range want[len(want)-50:] {
		a.store.AddEdge(big, w, graph.Out)
	}
	a.store.AddEdge(3, big, graph.In)
	a.verts.set(big, 42)

	a.handleView(r.view(t, 2, unrelated, 2, 3)) // without this agent: all of it leaves
	r.drain(t)
	if n := a.store.NumEdgeCopies(); n != 0 {
		t.Fatalf("the evicted agent still holds %d copies", n)
	}
	var pieces [][]graph.VertexID
	got := graph.NewStore()
	for id := range r.peers {
		for _, f := range r.received(id) {
			for _, run := range f.Runs {
				got.AddRun(run.Key, run.Dir, run.Nbrs)
				if run.Key != big || run.Dir != graph.Out {
					continue
				}
				pieces = append(pieces, run.Nbrs)
				if len(run.Nbrs) > maxShipRun || len(run.Nbrs) > shipChunk && len(f.Runs) != 1 {
					t.Fatalf("a piece of %d copies in a frame of %d runs; the cap is %d", len(run.Nbrs), len(f.Runs), maxShipRun)
				}
				if len(f.States) != 1 || f.States[0].Vertex != big || f.States[0].State != 42 {
					t.Fatalf("a piece travelled with states %+v", f.States)
				}
			}
		}
	}
	if len(pieces) != 3 {
		t.Fatalf("%d copies went as %d pieces, want 3", len(want), len(pieces))
	}
	if joined := slices.Concat(pieces...); !slices.Equal(joined, want) {
		t.Fatalf("the pieces hold %d copies, not the %d ascending ones held", len(joined), len(want))
	}
	var stored []graph.VertexID
	got.ForEachOut(big, func(w graph.VertexID) bool { stored = append(stored, w); return true })
	if _, in := got.Degree(big); !slices.Equal(stored, want) || in != 1 {
		t.Fatalf("the receiving store holds %d out-copies and %d in-copies of the hub, want %d and 1", len(stored), in, len(want))
	}
}

// TestMigrationBatchMixedInput applies one migration batch holding every
// shape of run the receiver must cope with — one merged into a direction
// that already holds a copy of it, one merged next to other copies, one into
// an empty direction, a split hub's with copies owned elsewhere, a vertex's
// owned elsewhere outright — and requires the store, the installed state,
// the applied count and the forwards to be what judging each copy on its own
// gives.
func TestMigrationBatchMixedInput(t *testing.T) {
	r := newMigrationRig(t)
	a := r.a
	const hub = graph.VertexID(5000)
	a.handleView(r.view(t, 2, hub, 1, 2, 3))
	self := consistent.AgentID(a.id)
	pick := func(from graph.VertexID, mine bool) graph.VertexID {
		for v := from; ; v++ {
			if o, _ := a.router.Master(v); (o == self) == mine && v != hub {
				return v
			}
		}
	}
	v1, v2, away := pick(100, true), pick(200, true), pick(300, false)
	a.store.AddEdge(v1, 50, graph.Out) // already held: applies as a no-op
	a.store.AddEdge(v2, 77, graph.In)

	hubRun := wire.EdgeRun{Key: hub, Dir: graph.Out}
	hubMine, hubAway := 0, 0
	for w := graph.VertexID(1000); w < 1040; w++ {
		if o, _ := a.router.EdgeOwner(hub, w); o == self {
			hubMine++
		} else {
			hubAway++
		}
		hubRun.Nbrs = append(hubRun.Nbrs, w)
	}
	if hubMine == 0 || hubAway == 0 {
		t.Fatalf("the hub's run has %d copies owned here and %d elsewhere; the test needs both", hubMine, hubAway)
	}
	runs := []wire.EdgeRun{
		{Key: v1, Dir: graph.Out, Nbrs: []graph.VertexID{10, 20, 50, 90}},
		{Key: v2, Dir: graph.In, Nbrs: []graph.VertexID{3, 5, 9}},
		{Key: v2, Dir: graph.Out, Nbrs: []graph.VertexID{4, 8}},
		hubRun,
		{Key: away, Dir: graph.Out, Nbrs: []graph.VertexID{1, 2, 3}},
	}
	batch := runCopies(runs)
	states := map[graph.VertexID]wire.VertexState{}
	for _, v := range []graph.VertexID{v1, v2, hub, away} {
		states[v] = wire.VertexState{Vertex: v, State: wire.Word(v + 1), Active: v == v2}
	}

	// The reference: one change at a time, straight on a store.
	want := graph.NewStore()
	want.AddEdge(v1, 50, graph.Out)
	want.AddEdge(v2, 77, graph.In)
	wantApplied, wantForwarded := uint64(0), map[consistent.AgentID][]wire.EdgeChange{}
	for _, c := range batch {
		if o, _ := a.router.CopyOwner(c); o != self {
			wantForwarded[o] = append(wantForwarded[o], c)
		} else if want.AddEdge(c.Src, c.Dst, c.Dir) {
			wantApplied++
		}
	}

	a.store.TakeActive()
	_, appliedBefore, _ := a.Stats()
	g := &ackGroup{}
	a.applyRuns(runs, g, states)
	r.drain(t)

	got, ref := heldCopies(a.store), heldCopies(want)
	if len(got) != len(ref) {
		t.Fatalf("store holds %d copies, per-change application gives %d", len(got), len(ref))
	}
	for c := range ref {
		if !got[c] {
			t.Fatalf("copy %+v missing from the store", c)
		}
	}
	if _, applied, _ := a.Stats(); applied-appliedBefore != wantApplied {
		t.Fatalf("applied counter advanced by %d, want %d", applied-appliedBefore, wantApplied)
	}
	for _, v := range []graph.VertexID{v1, v2, hub} {
		if stateOf(a, v) != algorithm.Word(v+1) {
			t.Fatalf("state of vertex %d not installed: %v", v, stateOf(a, v))
		}
	}
	if _, ok := a.verts.get(away); ok {
		t.Fatal("state installed for a vertex whose copies were all forwarded")
	}
	if active := a.store.TakeActive(); !slices.Equal(active, []graph.VertexID{v2}) {
		t.Fatalf("active after the batch: %v, want just %d", active, v2)
	}
	if run, _, whole := sealedRun(a.store, v2, graph.Out); !whole || !slices.Equal(run, []graph.VertexID{4, 8}) {
		t.Fatalf("the run into an empty direction was not sealed as it came: sealed %v, whole %v", run, whole)
	}
	for id := range r.peers {
		var changes []wire.EdgeChange
		var sts []wire.VertexState
		for _, f := range r.received(id) {
			changes, sts = append(changes, runCopies(f.Runs)...), append(sts, f.States...)
		}
		if !slices.Equal(changes, wantForwarded[consistent.AgentID(id)]) {
			t.Fatalf("agent %d was forwarded %v, want %v", id, changes, wantForwarded[consistent.AgentID(id)])
		}
		keyed := map[graph.VertexID]bool{}
		for _, c := range changes {
			keyed[keyedVertex(c)] = true
		}
		if len(sts) != len(keyed) {
			t.Fatalf("agent %d was forwarded copies of %d vertices with %d states", id, len(keyed), len(sts))
		}
	}
	if fwd, _, _ := a.Stats(); fwd != uint64(hubAway+3) {
		t.Fatalf("forwarded counter %d, want %d", fwd, hubAway+3)
	}
}

// TestEarlyMigrationBatchWaitsForItsView: a migration batch sent under a
// view this agent has not installed yet is neither stored nor bounced; it
// is held, unacknowledged, and applied once the view arrives, and so is the
// mail that came in behind it.
func TestEarlyMigrationBatchWaitsForItsView(t *testing.T) {
	r := newMigrationRig(t)
	a := r.a
	const hub = graph.VertexID(5000)
	next := r.view(t, 2, hub, 1, 2, 3)
	// A vertex this agent owns under the coming view.
	probe := newMigrationRig(t)
	probe.a.handleView(probe.view(t, 2, hub, 1, 2, 3))
	var v graph.VertexID
	for v = 100; ; v++ {
		if m, _ := probe.a.router.Master(v); m == consistent.AgentID(a.id) {
			break
		}
	}
	payload := wire.AppendEdgeBatch(nil, &wire.EdgeBatch{
		Epoch: 2, Migration: true,
		Runs:   []wire.EdgeRun{{Key: v, Dir: graph.Out, Nbrs: []graph.VertexID{1, 2}}},
		States: []wire.VertexState{{Vertex: v, State: 42}},
	})
	pkt := wire.GetPacket()
	pkt.Type, pkt.Payload = wire.TEdges, payload
	if !a.handleEdges(pkt) {
		t.Fatal("an early migration batch was not retained")
	}
	if a.store.NumEdgeCopies() != 0 || len(a.early) != 1 {
		t.Fatalf("early batch: %d copies stored, %d batches parked", a.store.NumEdgeCopies(), len(a.early))
	}
	// Mail for the vertex, rerouted behind its copies: under the old view it
	// would be bounced as well, so it waits with them.
	installRun(a, algorithm.PageRank{}, 64)
	mail := wire.GetPacket()
	mail.Type = wire.TVertexMsgs
	mail.Payload = wire.AppendVertexMsgBatch(nil, &wire.VertexMsgBatch{Step: 3,
		Msgs: []wire.VertexMsg{{Target: v, Via: v, Value: wire.Word(algorithm.FromF64(0.5))}}})
	if !a.handlePacket(mail) || len(a.early) != 2 || mailLen(a, 3) != 0 {
		t.Fatalf("mail behind an early batch: %d packets parked, %d entries held", len(a.early), mailLen(a, 3))
	}
	a.handleView(next)
	r.drain(t)
	if out := outDegree(a.store, v); out != 2 || stateOf(a, v) != 42 || len(a.early) != 0 {
		t.Fatalf("after the view: out-degree %d, value %v, %d batches still parked", out, stateOf(a, v), len(a.early))
	}
	if w, ok := mailAt(a, 3, v); !ok || w.F64() != 0.5 {
		t.Fatalf("the parked mail did not reach the step's mail: %v %v", w, ok)
	}
	if fwd, applied, _ := a.Stats(); fwd != 0 || applied != 2 {
		t.Fatalf("forwarded=%d applied=%d, want 0 and 2", fwd, applied)
	}
}

// TestApplyChangesQuietPathAllocs: storing a batch costs allocations per
// vertex touched, not per copy. Vertex IDs sit above 255, below which the
// runtime boxes integers for free, so a per-copy boxed argument would show.
func TestApplyChangesQuietPathAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation ceilings are meaningless under the race detector")
	}
	const vertices, perVertex = 64, 64
	a := newLoopbackAgent(t, allocTestConfig(), 0)
	var batch []wire.EdgeChange
	var runs []wire.EdgeRun
	states := map[graph.VertexID]wire.VertexState{}
	for v := graph.VertexID(1000); v < 1000+vertices; v++ {
		run := wire.EdgeRun{Key: v, Dir: graph.Out}
		for w := graph.VertexID(2000); w < 2000+perVertex; w++ {
			batch = append(batch, wire.EdgeChange{Action: graph.Insert, Src: v, Dst: w, Dir: graph.Out})
			run.Nbrs = append(run.Nbrs, w)
		}
		runs = append(runs, run)
		states[v] = wire.VertexState{Vertex: v, State: wire.Word(v)}
	}
	for _, tc := range []struct {
		name    string
		apply   func()
		ceiling float64
	}{
		// Per vertex: a tail record and the doublings of its add log.
		{"stream batch", func() { a.applyChanges(batch, &ackGroup{}) }, 12 * vertices},
		// Per vertex: a value; the sealed array grows by doubling.
		{"migration batch", func() { a.applyRuns(runs, &ackGroup{}, states) }, 2 * vertices},
	} {
		allocs := testing.AllocsPerRun(10, func() {
			a.store = graph.NewStore()
			a.verts.drop(recValue)
			tc.apply()
		})
		if a.store.NumOutEdges() != len(batch) {
			t.Fatalf("%s: %d of %d copies stored", tc.name, a.store.NumOutEdges(), len(batch))
		}
		if allocs > tc.ceiling {
			t.Fatalf("%s of %d copies over %d vertices: %v allocations, want at most %v", tc.name, len(batch), vertices, allocs, tc.ceiling)
		}
		t.Logf("%s: %v allocations (ceiling %v)", tc.name, allocs, tc.ceiling)
	}
}

// TestBulkBatchFoldsTheTail: a stream batch that inserts a sixteenth or
// more of what the store holds — a bulk load — leaves the store in its
// sealed runs once the batch round votes, where AddEdge's own rule leaves
// up to a quarter of it in the bulkier tail; a small batch after it is left
// to that rule, and no compaction runs for it.
func TestBulkBatchFoldsTheTail(t *testing.T) {
	r := newMigrationRig(t) // one member: every copy stays here
	a := r.a
	a.coordAddr = r.peers[2] // acknowledges the delta and the vote
	batchRound := func() {
		a.handleBatchOpen(1)
		r.drain(t)
	}
	tail := func() (n int) {
		a.store.TailCopies(func(graph.EdgeCopy, bool) bool { n++; return true })
		return n
	}
	apply := func(el graph.EdgeList) {
		changes := make([]wire.EdgeChange, 0, 2*len(el))
		for _, e := range el {
			for _, dir := range []graph.Dir{graph.Out, graph.In} {
				changes = append(changes, wire.EdgeChange{Action: graph.Insert, Src: e.Src, Dst: e.Dst, Dir: dir})
			}
		}
		a.applyChanges(changes, &ackGroup{})
	}

	apply(gen.RMAT(11, 16384, gen.Graph500Params(), 3).Dedupe())
	if tail() == 0 {
		t.Fatal("test input: the load left no tail to fold")
	}
	batchRound()
	if n := tail(); n != 0 {
		t.Fatalf("after the load's batch round the store keeps %d tail copies", n)
	}

	compactions := a.store.Compactions()
	var small graph.EdgeList
	for i := graph.VertexID(0); i < 64; i++ {
		small = append(small, graph.Edge{Src: 100000 + i, Dst: i})
	}
	apply(small)
	batchRound()
	if tail() != 2*len(small) || a.store.Compactions() != compactions {
		t.Fatalf("a 64-edge batch: %d tail copies, %d compactions; want its %d copies left in the tail and none",
			tail(), a.store.Compactions()-compactions, 2*len(small))
	}
}

// TestBatchDeltaCostsTouchedCells: the sketch delta a 64-insert batch round
// sends the coordinator, at the default 4096×4 sketch, is the header, the
// bitmap and one value per cell the batch touched — not the whole sketch —
// and merging it gives exactly the sketch of the batch's endpoints. The
// delta is empty afterwards: a round with no inserts sends none.
func TestBatchDeltaCostsTouchedCells(t *testing.T) {
	cfg := config.Default()
	a, rec := newRecordedAgent(t, cfg, 0) // one member: every copy stays here
	a.coordAddr = "coord"
	model := cfg.NewSketch()
	var changes []wire.EdgeChange
	for i := graph.VertexID(0); i < 64; i++ {
		src, dst := 1000+i, 5000+7*i
		for _, dir := range []graph.Dir{graph.Out, graph.In} {
			changes = append(changes, wire.EdgeChange{Action: graph.Insert, Src: src, Dst: dst, Dir: dir})
		}
		model.Add(uint64(src))
		model.Add(uint64(dst))
	}
	a.applyChanges(changes, &ackGroup{})

	deltas := func() (payloads [][]byte) {
		a.handleBatchOpen(1)
		rec.ackAll(a)
		for _, p := range rec.log(a.coordAddr).pkts {
			if p.Type == wire.TSketchDelta {
				payloads = append(payloads, p.Payload)
			}
		}
		rec.to = map[string]*peerLog{}
		return payloads
	}
	sent := deltas()
	if len(sent) != 1 {
		t.Fatalf("the batch round sent %d sketch deltas, want 1", len(sent))
	}
	dense, _ := model.MarshalBinary()
	touched := 0
	for off := 16; off < len(dense); off += 4 {
		if binary.LittleEndian.Uint32(dense[off:]) != 0 {
			touched++
		}
	}
	words := (cfg.SketchWidth*cfg.SketchDepth + 63) / 64
	limit := 16 + 8*words + 4*touched
	t.Logf("64 inserts touch %d cells: the delta is %d bytes (limit %d, the dense sketch %d)",
		touched, len(sent[0]), limit, len(dense))
	if len(sent[0]) > limit {
		t.Fatalf("the delta is %d bytes, over the %d of a header, a bitmap and %d touched cells", len(sent[0]), limit, touched)
	}
	merged := cfg.NewSketch()
	if _, err := merged.MergeDelta(sent[0], nil, 0); err != nil {
		t.Fatal(err)
	}
	if got, _ := merged.MarshalBinary(); !slices.Equal(got, dense) {
		t.Fatal("the merged delta is not the sketch of the batch's endpoints")
	}
	if again := deltas(); len(again) != 0 {
		t.Fatalf("a round with no inserts sent %d sketch deltas", len(again))
	}
}
