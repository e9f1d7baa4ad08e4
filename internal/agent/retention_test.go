package agent

import (
	"fmt"
	"reflect"
	"slices"
	"testing"
	"time"
	"unsafe"

	"elga/internal/algorithm"
	"elga/internal/config"
	"elga/internal/consistent"
	"elga/internal/directory"
	"elga/internal/gen"
	"elga/internal/graph"
	"elga/internal/sim"
	"elga/internal/transport"
	"elga/internal/wire"
)

// bytesOf is the size of s's backing array.
func bytesOf[T any](s []T) int { return cap(s) * int(unsafe.Sizeof(*new(T))) }

// piece reports s's backing array, if it has one, and its size to fn.
func piece[T any](fn func(unsafe.Pointer, int), s []T) {
	if cap(s) > 0 {
		fn(unsafe.Pointer(unsafe.SliceData(s)), bytesOf(s))
	}
}

// eachScratch reports every piece of phase scratch a holds between runs —
// what trimScratch keeps or drops — to fn. A free partial map counts as
// partialsHeld entries, the most any of them held.
func eachScratch(a *Agent, fn func(p unsafe.Pointer, bytes int)) {
	bufs := func(d *dstBufs) {
		for _, b := range d.bufs {
			piece(fn, b)
		}
	}
	table := func(t *aggTable) { piece(fn, t.slots); piece(fn, t.order) }
	bufs(&a.shard.dstBufs)
	for k := range a.verts.mail {
		m := &a.verts.mail[k]
		piece(fn, m.agg)
		piece(fn, m.has)
		piece(fn, m.order)
	}
	table(&a.foldTab)
	for _, m := range a.partialFree {
		fn(reflect.ValueOf(m).UnsafePointer(), a.partialsHeld*int(unsafe.Sizeof(partialEntry{})))
	}
	piece(fn, a.combineKeys)
}

// scratchOf is what eachScratch reports: the bytes, and the arrays in
// address order.
func scratchOf(a *Agent) (bytes int, arrays []uintptr) {
	eachScratch(a, func(p unsafe.Pointer, n int) {
		bytes += n
		arrays = append(arrays, uintptr(p))
	})
	slices.Sort(arrays)
	return bytes, arrays
}

// simCluster is a master, a coordinator and agents booted in one sim.World,
// driven on the test goroutine through a client endpoint, which routes edge
// batches under the first agent's view.
type simCluster struct {
	t      *testing.T
	w      *sim.World
	cl     *sim.Endpoint
	agents []*Agent
	acked  int
	reply  *wire.Packet
}

const simLimit = time.Minute

func bootSim(t *testing.T, cfg config.Config, agents int) *simCluster {
	t.Helper()
	c := &simCluster{t: t, w: sim.NewWorld()}
	ep := c.w.Endpoint("master")
	ep.Serve(directory.NewMaster(ep).Handle)
	ep = c.w.Endpoint("dir-0")
	d := directory.New(directory.Options{Config: cfg, MasterAddr: "master"}, ep)
	ep.Serve(d.Handle)
	boots := []*transport.Boot{d.Boot()}
	for i := 0; i < agents; i++ {
		ep := c.w.Endpoint(fmt.Sprintf("agent-%d", i))
		a := New(Options{Config: cfg, MasterAddr: "master", DirIndex: i}, ep)
		ep.Serve(a.Handle)
		c.agents = append(c.agents, a)
		boots = append(boots, a.Boot())
	}
	c.run(func() bool {
		for _, b := range boots {
			select {
			case <-b.Done():
			default:
				return false
			}
		}
		return true
	})
	for _, b := range boots {
		if err := b.Err(); err != nil {
			t.Fatal(err)
		}
	}
	c.cl = c.w.Endpoint("client")
	c.cl.Serve(func(pkt *wire.Packet) bool {
		if pkt.Type == wire.TAck {
			c.acked++
			return false
		}
		c.reply = pkt
		return true
	})
	c.run(func() bool {
		for _, a := range c.agents {
			if a.router.NumAgents() != agents {
				return false
			}
		}
		return true
	})
	return c
}

func (c *simCluster) run(done func() bool) {
	c.t.Helper()
	if err := c.w.RunUntil(done, simLimit); err != nil {
		c.t.Fatal(err)
	}
}

// request sends frame to the coordinator and runs the world until its reply.
func (c *simCluster) request(frame []byte, want wire.Type) *wire.Packet {
	c.t.Helper()
	c.reply = nil
	if err := c.cl.SendFrame("dir-0", frame); err != nil {
		c.t.Fatal(err)
	}
	c.run(func() bool { return c.reply != nil })
	if c.reply.Type != want {
		c.t.Fatalf("got %s, want %s", c.reply.Type, want)
	}
	return c.reply
}

// insert stores el, both copies of each edge at their owners, and seals.
func (c *simCluster) insert(el graph.EdgeList) {
	c.t.Helper()
	r := c.agents[0].router
	per := make([][]wire.EdgeChange, r.NumAgents())
	for _, e := range el {
		out, _ := r.EdgeOwnerIndex(e.Src, e.Dst)
		in, _ := r.EdgeOwnerIndex(e.Dst, e.Src)
		per[out] = append(per[out], wire.EdgeChange{Action: graph.Insert, Src: e.Src, Dst: e.Dst, Dir: graph.Out})
		per[in] = append(per[in], wire.EdgeChange{Action: graph.Insert, Src: e.Src, Dst: e.Dst, Dir: graph.In})
	}
	c.acked = 0
	for i, changes := range per {
		addr, _ := r.AddrOf(r.Agents()[i])
		frame := wire.AppendEdgeBatch(c.cl.NewFrame(wire.TEdges), &wire.EdgeBatch{Epoch: r.Epoch(), Changes: changes})
		if _, err := c.cl.SendFrameAcked(addr, frame); err != nil {
			c.t.Fatal(err)
		}
	}
	c.run(func() bool { return c.acked == len(per) })
	wire.ReleasePacket(c.request(c.cl.NewFrame(wire.TIngest), wire.TPong))
}

// wcc runs WCC to its end, and until every agent has taken down the run.
func (c *simCluster) wcc(fromScratch, async bool) {
	c.t.Helper()
	spec := &wire.AlgoStart{Algo: "wcc", FromScratch: fromScratch, Async: async}
	pkt := c.request(wire.AppendAlgoStart(c.cl.NewFrame(wire.TRunAlgo), spec), wire.TRunReply)
	st, err := wire.DecodeRunStats(pkt.Payload)
	wire.ReleasePacket(pkt)
	if err != nil || !st.Converged {
		c.t.Fatalf("wcc (from scratch %v): %+v, %v", fromScratch, st, err)
	}
	c.run(func() bool {
		for _, a := range c.agents {
			if a.run != nil {
				return false
			}
		}
		return true
	})
}

// check compares every vertex's label, read at one of its replicas, with
// algorithm.Run over el.
func (c *simCluster) check(el graph.EdgeList) {
	c.t.Helper()
	byID := map[consistent.AgentID]*Agent{}
	for _, a := range c.agents {
		byID[consistent.AgentID(a.id)] = a
	}
	for v, want := range algorithm.Run(algorithm.WCC{}, el, algorithm.RunOptions{}).State {
		id, _ := c.agents[0].router.AnyReplica(v, 0)
		if got, ok := byID[id].verts.get(v); !ok || got != want {
			c.t.Fatalf("vertex %d: label %d (found %v), want %d", v, got, ok, want)
		}
	}
}

// scratch is each agent's scratchOf.
func (c *simCluster) scratch() (bytes []int, arrays [][]uintptr) {
	for _, a := range c.agents {
		n, p := scratchOf(a)
		bytes, arrays = append(bytes, n), append(arrays, p)
	}
	return bytes, arrays
}

// largestBuf is the size of d's largest buffer.
func largestBuf(d *dstBufs) int {
	n := 0
	for _, b := range d.bufs {
		n = max(n, bytesOf(b))
	}
	return n
}

func sum(ns []int) int {
	s := 0
	for _, n := range ns {
		s += n
	}
	return s
}

// TestScratchFollowsTheLastRun: agents on an R-MAT graph of scale 13 with
// split hubs run WCC from scratch, then incremental WCC after 1-edge batches
// inside the giant component. Every incremental run leaves at least 8x less
// scratch than the from-scratch run did. The first one works in the large
// scratch and drops it, the second allocates the few pieces it needs, and
// the later ones, doing the same small work, allocate none: their scratch
// is the very arrays the second left (the floor keeps what they use). A
// from-scratch run after another, synchronous or asynchronous, keeps the
// very arrays too. Every answer equals algorithm.Run.
func TestScratchFollowsTheLastRun(t *testing.T) {
	cfg := allocTestConfig()
	cfg.SketchWidth = 1024
	cfg.ReplicationThreshold, cfg.MaxReplicas = 16, 3
	c := bootSim(t, cfg, 3)
	el := gen.RMAT(13, 65536, gen.Graph500Params(), 5).Dedupe()
	c.insert(el)
	c.wcc(true, false)
	c.check(el)
	large, _ := c.scratch()
	combined := false
	for _, a := range c.agents {
		combined = combined || len(a.partialFree) > 0
	}
	if !combined {
		t.Fatal("no agent combined a split hub: the combine phase's scratch goes untested")
	}

	// The new edges join unsplit vertices the graph already connects, and
	// each one's copies land on the same two agents: every incremental run
	// sends the same two announcements and changes no label.
	r := c.agents[0].router
	labels := algorithm.Run(algorithm.WCC{}, el, algorithm.RunOptions{}).State
	held := map[graph.Edge]bool{}
	for _, e := range el {
		held[e], held[graph.Edge{Src: e.Dst, Dst: e.Src}] = true, true
	}
	var batches []graph.Edge
	var owners [2]int
	for i := 0; len(batches) < 5; i++ {
		if i == 1<<16 {
			t.Fatalf("%d edges found to insert, want 5", len(batches))
		}
		e := graph.Edge{Src: graph.VertexID(i >> 3), Dst: graph.VertexID(i>>3 + i&7 + 1)}
		out, _ := r.EdgeOwnerIndex(e.Src, e.Dst)
		in, _ := r.EdgeOwnerIndex(e.Dst, e.Src)
		lu, ok1 := labels[e.Src]
		lv, ok2 := labels[e.Dst]
		if !ok1 || !ok2 || lu != lv || held[e] || r.Split(e.Src) || r.Split(e.Dst) || out == in {
			continue
		}
		if len(batches) == 0 {
			owners = [2]int{out, in}
		}
		if owners == [2]int{out, in} {
			batches = append(batches, e)
			held[e], held[graph.Edge{Src: e.Dst, Dst: e.Src}] = true, true
		}
	}
	var small []int
	var arrays [][]uintptr
	for i, e := range batches {
		c.insert(graph.EdgeList{e})
		el = append(el, e)
		c.wcc(false, false)
		got, at := c.scratch()
		if sum(large) < 8*sum(got) {
			t.Fatalf("scratch %v B after the from-scratch run, %v B after incremental run %d: want 8x less",
				large, got, i+1)
		}
		if i == 1 {
			small, arrays = got, at
			// The two agents at work keep what they used, the fold table
			// included: the floor holds it. The mail's arrays, sized by the
			// vertex table, go when the run left them nearly empty.
			for _, a := range c.agents {
				if id := consistent.AgentID(a.id); id == r.Agents()[owners[0]] || id == r.Agents()[owners[1]] {
					if len(a.foldTab.slots) == 0 {
						t.Fatalf("agent %d kept no fold table", a.id)
					}
				}
				for k := range a.verts.mail {
					if n := bytesOf(a.verts.mail[k].agg); n > scratchFloor {
						t.Fatalf("agent %d kept %d B of mail after an incremental run", a.id, n)
					}
				}
			}
		}
		for j := range got {
			if i > 1 && !slices.Equal(at[j], arrays[j]) {
				t.Fatalf("incremental run %d: agent %d holds %d B of scratch in other arrays than the %d B run 2 left",
					i+1, j, got[j], small[j])
			}
		}
	}
	c.check(el)

	// A from-scratch run after another, synchronous or not, keeps the very
	// arrays the first left, the large pieces it used among them: the mail's
	// arrays and scatter buffers.
	for _, async := range []bool{false, true} {
		c.wcc(true, async)
		again, arrays := c.scratch()
		c.wcc(true, async)
		got, at := c.scratch()
		for j, a := range c.agents {
			if !slices.Equal(at[j], arrays[j]) {
				t.Fatalf("a repeated from-scratch run (async %v) moved agent %d's scratch from %d B to %d B of other arrays",
					async, j, again[j], got[j])
			}
			largest := map[string]int{}
			for k := range a.verts.mail {
				largest["mail"] = max(largest["mail"], bytesOf(a.verts.mail[k].agg))
			}
			largest["shard buffer"] = largestBuf(&a.shard.dstBufs)
			used := []string{"mail", "shard buffer"}
			if async {
				used = []string{"shard buffer"}
			}
			for _, piece := range used {
				if largest[piece] <= scratchFloor {
					t.Fatalf("agent %d kept no %s above the floor after a from-scratch run (async %v)", j, piece, async)
				}
			}
		}
		c.check(el)
	}
	t.Logf("scratch per agent: %v B after a from-scratch run, %v B after an incremental one", large, small)
}
