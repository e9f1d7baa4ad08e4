package main

import (
	"fmt"
	"math/rand"
	"time"

	"elga/internal/algorithm"
	"elga/internal/baseline/bsp"
	"elga/internal/baseline/delta"
	"elga/internal/client"
	"elga/internal/config"
	"elga/internal/consistent"
	"elga/internal/graph"
	"elga/internal/route"
	"elga/internal/transport"
	"elga/internal/wire"
)

// runMicro times each layer alone, from outside, through its public
// functions, on the seed's R-MAT graph. Its rows are the unit costs the
// reconciliation multiplies by in-workload counts.
func runMicro(sc scale, seed int64) ([]sample, error) {
	var out []sample
	add := func(name string, v float64, unit string, n int) {
		out = append(out, sample{name, v, unit, n})
	}
	el := rmatGraph(sc, seed)
	rng := rand.New(rand.NewSource(seed))
	reps, rounds := sc.MicroReps, sc.MicroRounds

	// wire: the two batch payloads that carry nearly all bytes.
	vb := wire.VertexMsgBatch{Step: 1, Msgs: make([]wire.VertexMsg, 256)}
	for i := range vb.Msgs {
		vb.Msgs[i] = wire.VertexMsg{Target: graph.VertexID(rng.Uint64()), Via: graph.VertexID(rng.Uint64()), Value: wire.Word(rng.Uint64())}
	}
	vbuf := wire.AppendVertexMsgBatch(nil, &vb)
	add("wire.encode_vmsg256_ns", medianNs(reps, rounds, func() {
		for i := 0; i < rounds; i++ {
			vbuf = wire.AppendVertexMsgBatch(vbuf[:0], &vb)
		}
	}), "ns", reps*rounds)
	var vdec wire.VertexMsgBatch
	add("wire.decode_vmsg256_ns", medianNs(reps, rounds, func() {
		for i := 0; i < rounds; i++ {
			_ = wire.DecodeVertexMsgBatchInto(&vdec, vbuf)
		}
	}), "ns", reps*rounds)
	add("wire.bytes_per_vmsg", float64(len(vbuf))/float64(len(vb.Msgs)), "B", 1)

	eb := wire.EdgeBatch{Epoch: 1, Changes: make([]wire.EdgeChange, 1000)}
	for i := range eb.Changes {
		e := el[rng.Intn(len(el))]
		eb.Changes[i] = wire.EdgeChange{Action: graph.Insert, Dir: graph.Dir(i & 1), Src: e.Src, Dst: e.Dst}
	}
	ebuf := wire.AppendEdgeBatch(nil, &eb)
	add("wire.encode_edgebatch1k_ns", medianNs(reps, rounds/4+1, func() {
		for i := 0; i < rounds/4+1; i++ {
			ebuf = wire.AppendEdgeBatch(ebuf[:0], &eb)
		}
	}), "ns", reps*(rounds/4+1))
	var edec wire.EdgeBatch
	add("wire.decode_edgebatch1k_ns", medianNs(reps, rounds/4+1, func() {
		for i := 0; i < rounds/4+1; i++ {
			_ = wire.DecodeEdgeBatchInto(&edec, ebuf)
		}
	}), "ns", reps*(rounds/4+1))

	// transport: request/reply round trip and one-way push, per network.
	nets := []struct {
		name string
		net  transport.Network
	}{{"inproc", transport.NewInproc()}, {"tcp", transport.NewTCP()}}
	for _, nw := range nets {
		rtt, err := nodeRTT(nw.net, rounds)
		if err != nil {
			return nil, fmt.Errorf("micro: node rtt %s: %w", nw.name, err)
		}
		add("transport.node_rtt_"+nw.name+"_us_p50", median(rtt), "us", len(rtt))
		push, err := pushCost(nw.net, rounds, vbuf)
		if err != nil {
			return nil, fmt.Errorf("micro: push %s: %w", nw.name, err)
		}
		add("transport.push_"+nw.name+"_ns_per_frame", push, "ns", rounds)
	}

	// route and consistent: owner lookups over every edge, with the
	// per-vertex route cache cold (just after a view update) and warm.
	cfg := config.Default()
	sk := cfg.NewSketch()
	for _, e := range el {
		sk.Add(uint64(e.Src))
		sk.Add(uint64(e.Dst))
	}
	skData, err := sk.MarshalBinary()
	if err != nil {
		return nil, fmt.Errorf("micro: marshal sketch: %w", err)
	}
	view := &wire.View{N: uint64(el.NumVertices()), Sketch: skData}
	members := make([]consistent.AgentID, sc.Agents)
	for i := range members {
		members[i] = consistent.AgentID(i + 1)
		view.Agents = append(view.Agents, wire.AgentInfo{ID: uint64(i + 1), Addr: fmt.Sprintf("agent-%d", i+1)})
	}
	router := route.New(cfg)
	sweep := func() {
		for _, e := range el {
			router.EdgeOwner(e.Src, e.Dst)
		}
	}
	var cold, warm, update []float64
	for r := 0; r < reps; r++ {
		view.Epoch++
		start := time.Now()
		if _, err := router.Update(view); err != nil {
			return nil, fmt.Errorf("micro: router update: %w", err)
		}
		update = append(update, us(time.Since(start)))
		cold = append(cold, medianNs(1, len(el), sweep))
		warm = append(warm, medianNs(1, len(el), sweep))
	}
	add("route.edge_owner_ns_cold", median(cold), "ns", reps*len(el))
	add("route.edge_owner_ns_warm", median(warm), "ns", reps*len(el))
	add("route.update_view_us", median(update), "us", reps)
	ring := consistent.New(members, consistent.Options{Virtual: cfg.Virtual, Hash: cfg.Hash})
	add("consistent.owner_ns", medianNs(reps, len(el), func() {
		for _, e := range el {
			ring.OwnerOfVertex(uint64(e.Src))
		}
	}), "ns", reps*len(el))

	// graph: apply both copies of every edge, compact, sweep out-cursors.
	changes := el.Changes()
	var store *graph.Store
	add("graph.apply_ns_per_change", medianNs(reps, 2*len(changes), func() {
		store = graph.NewStore()
		store.ApplyBatch(changes, graph.Out)
		store.ApplyBatch(changes, graph.In)
	}), "ns", reps*2*len(changes))
	add("graph.compact_ms", medianNs(reps, 1, store.Compact)/1e6, "ms", reps)
	verts := store.VertexList()
	add("graph.cursor_ns_per_edge", medianNs(reps, len(el), func() {
		for _, v := range verts {
			cur := store.OutCursor(v)
			for _, ok := cur.Next(); ok; _, ok = cur.Next() {
			}
		}
	}), "ns", reps*len(el))

	// algorithm/baseline: the plain single-threaded floors.
	const bspSteps = 10
	engine := bsp.New(el, 1)
	bspStep := medianNs(reps, bspSteps, func() {
		engine.Run(algorithm.PageRank{}, bsp.Options{Workers: 1, MaxSteps: bspSteps})
	})
	add("algorithm.bsp_step_ms", bspStep/1e6, "ms", reps*bspSteps)
	add("algorithm.kernel_ns_per_edge", bspStep/float64(len(el)), "ns", reps*bspSteps)

	nb := rounds / 40
	if nb < 4 {
		nb = 4
	}
	batches, remaining := streamBatches(el, nb, sc.StreamBatch, seed)
	dyn := delta.New(remaining)
	dyn.RunFull(algorithm.WCC{}, delta.Options{})
	var deltaUs []float64
	for _, b := range batches {
		deltaUs = append(deltaUs, us(dyn.ApplyBatch(algorithm.WCC{}, b, delta.Options{}).Elapsed))
	}
	add("delta.wcc_batch64_us", median(deltaUs), "us", len(deltaUs))

	// directory, streamer: a cluster with nothing to compute.
	for _, nw := range nets {
		idle, err := idleCluster(sc, nw.net, nw.name == "inproc", rounds, changes)
		if err != nil {
			return nil, fmt.Errorf("micro: idle cluster %s: %w", nw.name, err)
		}
		add("directory.step_floor_us_"+nw.name, median(idle.stepUs), "us", len(idle.stepUs))
		if nw.name == "inproc" {
			add("directory.seal_us_p50", median(idle.sealUs), "us", len(idle.sealUs))
			add("directory.join_view_ms", median(idle.joinMs), "ms", len(idle.joinMs))
			add("streamer.send_ns_per_change", idle.sendNs, "ns", len(changes))
		}
	}
	return out, nil
}

// nodeRTT times Node.Request/Reply round trips between two nodes.
func nodeRTT(nw transport.Network, rounds int) ([]float64, error) {
	a, err := transport.NewNode(nw, "", 0)
	if err != nil {
		return nil, err
	}
	defer a.Close()
	b, err := transport.NewNode(nw, "", 0)
	if err != nil {
		return nil, err
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for pkt := range b.Inbox() {
			_ = b.Reply(pkt, wire.TPong, nil)
		}
	}()
	// Closing b closes its inbox, which ends the responder.
	defer func() { b.Close(); <-done }()
	rtt := make([]float64, 0, rounds)
	for i := 0; i < rounds; i++ {
		start := time.Now()
		pkt, err := a.Request(b.Addr(), wire.TPing, nil, 10*time.Second)
		if err != nil {
			return nil, err
		}
		rtt = append(rtt, us(time.Since(start)))
		wire.ReleasePacket(pkt)
	}
	return rtt, nil
}

// pushCost times `frames` one-way sends of payload from one node until
// the other has received them all, per frame.
func pushCost(nw transport.Network, frames int, payload []byte) (float64, error) {
	a, err := transport.NewNode(nw, "", 0)
	if err != nil {
		return 0, err
	}
	defer a.Close()
	b, err := transport.NewNode(nw, "", 0)
	if err != nil {
		return 0, err
	}
	got, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		n := 0
		for pkt := range b.Inbox() {
			wire.ReleasePacket(pkt)
			if n++; n == frames {
				close(got)
			}
		}
	}()
	defer func() { b.Close(); <-done }()
	start := time.Now()
	for i := 0; i < frames; i++ {
		if err := a.Send(b.Addr(), wire.TVertexMsgs, payload); err != nil {
			return 0, err
		}
	}
	select {
	case <-got:
	case <-time.After(30 * time.Second):
		return 0, fmt.Errorf("receiver saw fewer than %d frames", frames)
	}
	return float64(time.Since(start)) / float64(frames), nil
}

// idle is what a cluster with a 4-edge graph measures: with nothing to
// compute, a superstep is the Ready→Advance round trip alone.
type idle struct {
	stepUs, sealUs, joinMs []float64
	sendNs                 float64
}

// idleCluster measures the step floor on nw and, when control is set, the
// seal, join and streamer send costs too.
func idleCluster(sc scale, nw transport.Network, control bool, rounds int, changes graph.Batch) (*idle, error) {
	c, err := bootCluster(sc, nw, false)
	if err != nil {
		return nil, err
	}
	defer c.Shutdown()
	if err := c.Load(graph.EdgeList{{Src: 0, Dst: 1}, {Src: 1, Dst: 2}, {Src: 2, Dst: 3}, {Src: 3, Dst: 0}}); err != nil {
		return nil, err
	}
	steps := uint32(rounds/10 + 5)
	st, err := c.Run(client.RunSpec{Algo: "pagerank", MaxSteps: steps, FromScratch: true, Timeout: runTimeout})
	if err != nil {
		return nil, err
	}
	out := &idle{}
	for _, d := range st.StepTimes {
		out.stepUs = append(out.stepUs, us(d))
	}
	if !control {
		return out, nil
	}
	for i := 0; i < rounds/10+5; i++ {
		start := time.Now()
		if err := c.Seal(); err != nil {
			return nil, err
		}
		out.sealUs = append(out.sealUs, us(time.Since(start)))
	}
	for i := 0; i < 5; i++ {
		start := time.Now()
		if _, err := c.AddAgent(); err != nil {
			return nil, err
		}
		out.joinMs = append(out.joinMs, ms(time.Since(start)))
		if err := c.Seal(); err != nil {
			return nil, err
		}
		if err := c.RemoveAgent(c.NumAgents() - 1); err != nil {
			return nil, err
		}
		if err := c.Seal(); err != nil {
			return nil, err
		}
	}
	s, err := c.NewStreamer()
	if err != nil {
		return nil, err
	}
	defer s.Close()
	start := time.Now()
	if err := s.SendBatch(changes); err != nil {
		return nil, err
	}
	if err := s.Flush(); err != nil {
		return nil, err
	}
	out.sendNs = float64(time.Since(start)) / float64(len(changes))
	return out, c.Seal()
}
