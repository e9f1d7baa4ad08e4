package directory

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"
	"time"

	"elga/internal/config"
	"elga/internal/graph"
	"elga/internal/route"
	"elga/internal/sketch"
	"elga/internal/transport"
	"elga/internal/wire"
)

func testCfg() config.Config {
	cfg := config.Default()
	cfg.SketchWidth = 128
	cfg.SketchDepth = 2
	cfg.Virtual = 4
	cfg.RequestTimeout = 5 * time.Second
	return cfg
}

func startMaster(t *testing.T, nw transport.Network) *Master {
	t.Helper()
	m, err := StartMaster(nw, "")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
	return m
}

func startDir(t *testing.T, nw transport.Network, masterAddr string) *Directory {
	t.Helper()
	d, err := Start(Options{Config: testCfg(), Network: nw, MasterAddr: masterAddr})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = d.Close() })
	return d
}

func TestFirstDirectoryIsCoordinator(t *testing.T) {
	nw := transport.NewInproc()
	m := startMaster(t, nw)
	d1 := startDir(t, nw, m.Addr())
	if !d1.IsCoordinator() {
		t.Fatal("first directory should coordinate")
	}
	d2 := startDir(t, nw, m.Addr())
	if d2.IsCoordinator() {
		t.Fatal("second directory should relay")
	}
	if d2.CoordinatorAddr() != d1.Addr() {
		t.Fatal("relay does not know the coordinator")
	}
}

func TestMasterDirectoryList(t *testing.T) {
	nw := transport.NewInproc()
	m := startMaster(t, nw)
	d1 := startDir(t, nw, m.Addr())
	d2 := startDir(t, nw, m.Addr())
	node, err := transport.NewNode(nw, "", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	reply, err := node.Request(m.Addr(), wire.TGetDirectory, nil, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	dirs, err := wire.DecodeStringList(reply.Payload)
	if err != nil {
		t.Fatal(err)
	}
	if len(dirs) != 2 || dirs[0] != d1.Addr() || dirs[1] != d2.Addr() {
		t.Fatalf("directory list %v", dirs)
	}
}

func TestMasterPing(t *testing.T) {
	nw := transport.NewInproc()
	m := startMaster(t, nw)
	node, _ := transport.NewNode(nw, "", 0)
	defer node.Close()
	reply, err := node.Request(m.Addr(), wire.TPing, nil, 5*time.Second)
	if err != nil || reply.Type != wire.TPong {
		t.Fatalf("ping: %v %v", reply, err)
	}
}

// fakeAgent joins and answers barrier traffic just enough to exercise the
// coordinator's state machine without real agents.
type fakeAgent struct {
	node *transport.Node
	id   uint64
	// view is the view the join reply carried.
	view *wire.View
}

func joinFake(t *testing.T, nw transport.Network, coord string) *fakeAgent {
	t.Helper()
	node, err := transport.NewNode(nw, "", 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(node.Close)
	if err := node.Send(coord, wire.TSubscribe, wire.SubscribeTypes()); err != nil {
		t.Fatal(err)
	}
	reply, err := node.Request(coord, wire.TJoin,
		wire.AppendJoin(nil, &wire.Join{Addr: node.Addr()}), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	jr, err := wire.DecodeJoinReply(reply.Payload)
	if err != nil {
		t.Fatal(err)
	}
	f := &fakeAgent{node: node, id: jr.AgentID, view: jr.View}
	// Answer migration rounds and batch rounds forever.
	go func() {
		for pkt := range node.Inbox() {
			switch pkt.Type {
			case wire.TDirUpdate:
				v, err := wire.DecodeView(pkt.Payload)
				if err == nil {
					_ = node.Send(coord, wire.TReady, wire.AppendReady(nil, &wire.Ready{
						AgentID: f.id, Step: uint32(v.Epoch), Phase: wire.PhaseMigrate,
					}))
				}
			case wire.TBatchOpen:
				r := wire.NewReader(pkt.Payload)
				batchID := r.U64()
				_ = node.Send(coord, wire.TReady, wire.AppendReady(nil, &wire.Ready{
					AgentID: f.id, Step: uint32(batchID), Phase: wire.PhaseBatch, Masters: 10,
				}))
			case wire.TSketchDelta, wire.TEdges:
				node.Ack(pkt)
			}
		}
	}()
	return f
}

func TestJoinAssignsMonotonicIDs(t *testing.T) {
	nw := transport.NewInproc()
	m := startMaster(t, nw)
	d := startDir(t, nw, m.Addr())
	a1 := joinFake(t, nw, d.Addr())
	a2 := joinFake(t, nw, d.Addr())
	if a1.id == 0 || a2.id <= a1.id {
		t.Fatalf("ids %d, %d not monotonic", a1.id, a2.id)
	}
}

func TestSealAggregatesMasters(t *testing.T) {
	nw := transport.NewInproc()
	m := startMaster(t, nw)
	d := startDir(t, nw, m.Addr())
	joinFake(t, nw, d.Addr())
	joinFake(t, nw, d.Addr())
	client, err := transport.NewNode(nw, "", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if _, err := client.Request(d.Addr(), wire.TIngest, nil, 10*time.Second); err != nil {
		t.Fatalf("seal failed: %v", err)
	}
}

// watchViews subscribes a bare node to dirAddr's view broadcasts. The
// first view it is sent is the subscription's copy of the current one;
// every later one is a broadcast.
func watchViews(t *testing.T, nw transport.Network, dirAddr string) *transport.Node {
	t.Helper()
	watcher, err := transport.NewNode(nw, "", 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(watcher.Close)
	if err := watcher.Send(dirAddr, wire.TSubscribe, wire.SubscribeTypes(wire.TDirUpdate)); err != nil {
		t.Fatal(err)
	}
	return watcher
}

// nextView returns the next view delivered to watcher.
func nextView(t *testing.T, watcher *transport.Node) *wire.View {
	t.Helper()
	deadline := time.After(5 * time.Second)
	for {
		select {
		case pkt := <-watcher.Inbox():
			if pkt.Type != wire.TDirUpdate {
				continue
			}
			watcher.Ack(pkt)
			v, err := wire.DecodeView(pkt.Payload)
			if err != nil {
				t.Fatal(err)
			}
			return v
		case <-deadline:
			t.Fatal("no view arrived")
		}
	}
}

// pushDeltaAndSeal delivers one sketch delta to the directory, the way an
// agent's batch-open round does, and then seals.
func pushDeltaAndSeal(t *testing.T, sender *transport.Node, dirAddr string, delta *sketch.Delta) {
	t.Helper()
	payload := delta.AppendBinary(nil)
	if _, err := sender.SendFrameAcked(dirAddr, append(sender.NewFrameHint(wire.TSketchDelta, len(payload)), payload...)); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(5 * time.Second); sender.Stats().OutstandingAcks > 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the sketch delta was never acknowledged")
		}
	}
	if _, err := sender.Request(dirAddr, wire.TIngest, nil, 10*time.Second); err != nil {
		t.Fatal(err)
	}
}

// TestSketchDeltaMergesIntoView pins what a merged sketch delta does to
// the published view. A delta that moves no cell across a replica bucket
// is merged at the directory — the next join reply carries it — but the
// seal that collected it publishes nothing and leaves the epoch alone. A
// delta that does cross is broadcast, under a new epoch, by the next seal.
func TestSketchDeltaMergesIntoView(t *testing.T) {
	nw := transport.NewInproc()
	m := startMaster(t, nw)
	d := startDir(t, nw, m.Addr())
	first := joinFake(t, nw, d.Addr())
	epoch := first.view.Epoch

	sender, err := transport.NewNode(nw, "", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer sender.Close()
	cfgv := testCfg()
	pushAndSeal := func(n uint32) {
		t.Helper()
		delta := sketch.NewDelta(cfgv.SketchWidth, cfgv.SketchDepth)
		delta.AddN(42, n)
		pushDeltaAndSeal(t, sender, d.Addr(), delta)
	}
	estimate := func(v *wire.View) uint64 {
		t.Helper()
		var sk sketch.Sketch
		if err := sk.UnmarshalBinary(v.Sketch); err != nil {
			t.Fatal(err)
		}
		return sk.Estimate(42)
	}

	watcher := watchViews(t, nw, d.Addr())
	if v := nextView(t, watcher); v.Epoch != epoch {
		t.Fatalf("catch-up view has epoch %d, want %d", v.Epoch, epoch)
	}

	// Below the replication threshold (256): merged, not published. The
	// join that follows is the very next epoch and the very next view the
	// watcher sees, and its reply already holds the merged count.
	pushAndSeal(99)
	second := joinFake(t, nw, d.Addr())
	if second.view.Epoch != epoch+1 {
		t.Fatalf("join after a non-crossing seal got epoch %d, want %d: the seal opened an epoch",
			second.view.Epoch, epoch+1)
	}
	if got := estimate(second.view); got != 99 {
		t.Fatalf("join reply estimates %d for the key, want the merged 99", got)
	}
	if v := nextView(t, watcher); v.Epoch != epoch+1 || len(v.Agents) != 2 {
		t.Fatalf("first broadcast after the non-crossing seal: epoch %d, %d agents; want the join (epoch %d)",
			v.Epoch, len(v.Agents), epoch+1)
	}

	// Across the threshold: the seal itself publishes the merged sketch.
	pushAndSeal(200)
	v := nextView(t, watcher)
	if v.Epoch != epoch+2 || len(v.Agents) != 2 {
		t.Fatalf("broadcast after the crossing seal: epoch %d, %d agents; want epoch %d", v.Epoch, len(v.Agents), epoch+2)
	}
	if got := estimate(v); got != 299 {
		t.Fatalf("crossing broadcast estimates %d for the key, want 299", got)
	}
}

// metricReport is a TReport payload carrying one metric sample.
func metricReport(agentID uint64, name string, v float64) []byte {
	return wire.AppendSection(wire.AppendReportHeader(nil, agentID), wire.SecMetrics, func(b []byte) []byte {
		return wire.AppendMetrics(b, []wire.Metric{{Name: name, Value: v}})
	})
}

func TestMetricHandlerInvoked(t *testing.T) {
	nw := transport.NewInproc()
	m := startMaster(t, nw)
	got := make(chan *wire.Metric, 1)
	d, err := Start(Options{
		Config: testCfg(), Network: nw, MasterAddr: m.Addr(),
		MetricHandler: func(mt *wire.Metric) {
			select {
			case got <- mt:
			default:
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	node, _ := transport.NewNode(nw, "", 0)
	defer node.Close()
	_ = node.Send(d.Addr(), wire.TReport, metricReport(1, "qps", 7))
	select {
	case mt := <-got:
		if mt.Name != "qps" || mt.Value != 7 {
			t.Fatalf("metric %+v", mt)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("metric never delivered")
	}
}

// TestMetricHandlerConcurrentBursts hammers the coordinator with metric
// reports from many concurrent senders. The handler runs on the directory
// event loop, so it may use unsynchronized state (the plain map below);
// under -race this test proves the serialization, and the final tally
// proves no sample was dropped on the way in.
func TestMetricHandlerConcurrentBursts(t *testing.T) {
	const senders, perSender = 8, 200
	nw := transport.NewInproc()
	m := startMaster(t, nw)
	counts := make(map[uint64]int) // touched only on the event loop
	var sum float64
	done := make(chan struct{})
	d, err := Start(Options{
		Config: testCfg(), Network: nw, MasterAddr: m.Addr(),
		MetricHandler: func(mt *wire.Metric) {
			counts[mt.AgentID]++
			sum += mt.Value
			total := 0
			for _, n := range counts {
				total += n
			}
			if total == senders*perSender {
				close(done)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = d.Close() }()

	// Sender nodes outlive the burst: metric pushes are fire-and-forget,
	// and closing a node drops frames still queued behind its writers.
	for s := 0; s < senders; s++ {
		node, err := transport.NewNode(nw, "", 0)
		if err != nil {
			t.Fatal(err)
		}
		defer node.Close()
		go func(id uint64) {
			for i := 0; i < perSender; i++ {
				_ = node.Send(d.Addr(), wire.TReport, metricReport(id, "qps", 1))
			}
		}(uint64(s + 1))
	}

	select {
	case <-done:
	case <-time.After(10 * time.Second):
		// Don't inspect counts here: the handler may still be running.
		t.Fatalf("burst incomplete: fewer than %d samples delivered", senders*perSender)
	}
	// close(done) happens-before this read, so inspecting the handler
	// state here is race-free.
	for s := 1; s <= senders; s++ {
		if counts[uint64(s)] != perSender {
			t.Errorf("sender %d: %d samples, want %d", s, counts[uint64(s)], perSender)
		}
	}
	if sum != float64(senders*perSender) {
		t.Errorf("sum = %v, want %d", sum, senders*perSender)
	}
}

func TestRelayForwardsSubscriptionsAndViews(t *testing.T) {
	nw := transport.NewInproc()
	m := startMaster(t, nw)
	coord := startDir(t, nw, m.Addr())
	relay := startDir(t, nw, m.Addr())
	// Subscriber attaches to the relay; a membership change at the
	// coordinator must still reach it.
	sub, err := transport.NewNode(nw, "", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	if err := sub.Send(relay.Addr(), wire.TSubscribe, wire.SubscribeTypes(wire.TDirUpdate)); err != nil {
		t.Fatal(err)
	}
	joinFake(t, nw, coord.Addr())
	deadline := time.After(5 * time.Second)
	for {
		select {
		case pkt := <-sub.Inbox():
			if pkt.Type != wire.TDirUpdate {
				continue
			}
			v, err := wire.DecodeView(pkt.Payload)
			if err != nil {
				t.Fatal(err)
			}
			if len(v.Agents) == 1 {
				return
			}
		case <-deadline:
			t.Fatal("relay never delivered the view")
		}
	}
}

// TestLateJoinerRoutesLikeIncumbents is the invariant a quiet seal rests
// on. Between broadcasts the directory's sketch runs ahead of the one the
// routers hold, but never by a replica bucket, so the two must route every
// vertex identically. After one crossing seal and several that cross
// nothing, an agent joins: a router fed the sketch incumbents last saw and
// a router fed the exact merge in the join reply agree on every vertex's
// replica set and on the owner of its edges.
func TestLateJoinerRoutesLikeIncumbents(t *testing.T) {
	nw := transport.NewInproc()
	m := startMaster(t, nw)
	d := startDir(t, nw, m.Addr())
	for i := 0; i < 3; i++ {
		joinFake(t, nw, d.Addr())
	}
	sender, err := transport.NewNode(nw, "", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer sender.Close()
	watcher := watchViews(t, nw, d.Addr())
	cfgv := testCfg()
	// The default threshold follows the sketch total over the three members.
	threshold := func(total uint64) uint64 { return cfgv.Threshold(total, 3) }
	const keys = 400
	model := cfgv.NewSketch() // what the directory holds
	// A delta is built from the increments the test feeds it; all is every
	// pushed delta's, so one equal to the whole merge can be built too.
	type add struct {
		key uint64
		n   uint32
	}
	var all []add
	deltaOf := func(adds []add) *sketch.Delta {
		delta := sketch.NewDelta(cfgv.SketchWidth, cfgv.SketchDepth)
		for _, a := range adds {
			delta.AddN(a.key, a.n)
		}
		return delta
	}
	pushAndSeal := func(adds []add) (crossed bool) {
		t.Helper()
		delta := deltaOf(adds)
		crossed, err := model.MergeDelta(delta.AppendBinary(nil), threshold, cfgv.MaxReplicas)
		if err != nil {
			t.Fatal(err)
		}
		pushDeltaAndSeal(t, sender, d.Addr(), delta)
		all = append(all, adds...)
		return crossed
	}

	// A skewed start: a few keys far over the threshold, the rest far under.
	rng := rand.New(rand.NewSource(3))
	var skewed []add
	for k := uint64(0); k < keys; k++ {
		skewed = append(skewed, add{k, uint32(1 + rng.Intn(20))})
	}
	for k := uint64(0); k < 8; k++ {
		skewed = append(skewed, add{k * 37, uint32(300 + rng.Intn(900))})
	}
	if !pushAndSeal(skewed) {
		t.Fatal("test input: the skewed delta crossed nothing")
	}
	// The crossing seal published the merge: wait for that view.
	want, _ := model.MarshalBinary()
	published := nextView(t, watcher)
	for !bytes.Equal(published.Sketch, want) {
		published = nextView(t, watcher)
	}

	// Quiet seals: single increments, skipping any that would cross.
	quiet := 0
	for quiet < 5 {
		var adds []add
		for i := 0; i < 40; i++ {
			adds = append(adds, add{uint64(rng.Intn(keys)), 1})
		}
		trial := model.Clone()
		if crossed, _ := trial.MergeDelta(deltaOf(adds).AppendBinary(nil), threshold, cfgv.MaxReplicas); crossed {
			continue
		}
		if pushAndSeal(adds) {
			t.Fatal("model and trial disagree about a crossing")
		}
		quiet++
	}
	// A quiet seal that moves the threshold: a delta equal to the whole
	// merge doubles every cell, the total and the threshold with it, so no
	// cell changes bucket although every one changed.
	if tBefore := threshold(model.Count()); threshold(2*model.Count()) != 2*tBefore {
		t.Fatalf("test input: doubling the total %d does not double the threshold %d", model.Count(), tBefore)
	}
	if pushAndSeal(slices.Clone(all)) {
		t.Fatal("the doubling delta crossed a bucket")
	}

	joiner := joinFake(t, nw, d.Addr())
	if joiner.view.Epoch != published.Epoch+1 {
		t.Fatalf("join got epoch %d, want %d: a quiet seal opened an epoch", joiner.view.Epoch, published.Epoch+1)
	}
	if want, _ = model.MarshalBinary(); !bytes.Equal(joiner.view.Sketch, want) {
		t.Fatal("the join reply does not carry the exact merge of every delta")
	}
	if bytes.Equal(joiner.view.Sketch, published.Sketch) {
		t.Fatal("test input: the quiet seals changed no cell")
	}

	// An incumbent that had only learned the new membership would still
	// hold the published sketch.
	stale := *joiner.view
	stale.Sketch = published.Sketch
	incumbent, late := route.New(cfgv), route.New(cfgv)
	if _, err := incumbent.Update(&stale); err != nil {
		t.Fatal(err)
	}
	if _, err := late.Update(joiner.view); err != nil {
		t.Fatal(err)
	}
	split := 0
	for v := graph.VertexID(0); v < keys; v++ {
		a, b := incumbent.ReplicaSet(v), late.ReplicaSet(v)
		if !slices.Equal(a, b) {
			t.Fatalf("vertex %d: replicas %v under the published sketch, %v under the exact one", v, a, b)
		}
		if len(a) > 1 {
			split++
		}
		for _, other := range []graph.VertexID{v + 1, v * 31, 99999} {
			oa, _ := incumbent.EdgeOwner(v, other)
			ob, _ := late.EdgeOwner(v, other)
			if oa != ob {
				t.Fatalf("edge (%d,%d): owner %d under the published sketch, %d under the exact one", v, other, oa, ob)
			}
		}
	}
	if split == 0 {
		t.Fatal("test input: no vertex is split, so the sketch decides nothing")
	}
}
