package agent

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"elga/internal/algorithm"
	"elga/internal/graph"
	"elga/internal/wire"
)

// TestPeerSlotCacheMatchesFind: a step's mail, and what is forwarded, is
// the same whether received frames merge through their peers' slot caches
// or each target is looked up. Two agents share a script: the first takes
// every frame from its peer's address, the second from none, which caches
// nothing. Three peers each send a frame of their own targets in a standing
// order, or that order permuted, or mixed with pushed targets (held here,
// held elsewhere or held nowhere); between frames, compute steps read a
// step's mail and fill the next one's, views install that move some targets to a new
// member or drop a peer (which retires it), and the vertex table moves. A
// failure names its seed: go test -run 'TestPeerSlotCacheMatchesFind/seed-N$'.
func TestPeerSlotCacheMatchesFind(t *testing.T) {
	var warm, moved, unreplicated int
	for seed := int64(1); seed <= 16; seed++ {
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			var agents [2]*Agent
			var recs [2]*recorder
			for k := range agents {
				agents[k], recs[k] = newRecordedAgent(t, allocTestConfig(), 512)
				mergeView(t, agents[k], 2, 2, 3, 4)
				rmatShare(agents[k], 9, 4096, seed)
				startRun(agents[k], algorithm.PageRank{}, 1, 512)
			}
			a, step, epoch := agents[0], uint32(0), uint64(2)
			members, joined := []uint64{2, 3, 4}, uint64(5)
			compute := func() {
				for _, x := range agents {
					advanceCompute(x, step)
				}
				step++
			}
			compute() // builds the plan and fills step 1's mail
			var held, pushed []graph.VertexID
			for i := range a.verts.slots {
				if r := &a.verts.slots[i]; r.flags != 0 {
					held = append(held, r.key)
				}
			}
			slices.Sort(held)
			pushed = append(slices.Clone(held), 1<<20, 1<<20+1, 1<<20+2)
			planned := map[string][]graph.VertexID{}
			for _, id := range members {
				order := slices.Clone(held)
				rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
				planned[fmt.Sprintf("peer-%d", id)] = order[:len(order)/2+rng.Intn(len(order)/2)]
			}
			grown := graph.VertexID(1 << 22)
			for ev := 0; ev < 48; ev++ {
				var what string
				switch op := rng.Intn(14); {
				case op < 8:
					from := fmt.Sprintf("peer-%d", members[rng.Intn(len(members))])
					targets := slices.Clone(planned[from])
					switch rng.Intn(3) {
					case 1:
						for n := 1 + rng.Intn(4); n > 0 && len(targets) > 0; n-- {
							i, j := rng.Intn(len(targets)), rng.Intn(len(targets))
							targets[i], targets[j] = targets[j], targets[i]
						}
						what = "a permuted frame"
					case 2:
						for n := 1 + rng.Intn(8); n > 0; n-- {
							targets = slices.Insert(targets, rng.Intn(len(targets)+1), pushed[rng.Intn(len(pushed))])
						}
						targets = slices.Compact(targets)
						what = "a mixed frame"
					default:
						what = "a planned frame"
					}
					what += " from " + from
					st := step + uint32(rng.Intn(4)/3) // now and then the next step's
					msgs := make([]wire.VertexMsg, len(targets))
					for i, v := range targets {
						msgs[i] = wire.VertexMsg{Target: v, Via: held[rng.Intn(len(held))],
							Value: wire.Word(algorithm.FromF64(rng.Float64()))}
					}
					if c := a.verts.peers[from]; c != nil && len(c.keys) > 0 && c.layout == a.verts.layout && c.view == a.verts.view {
						warm++
					}
					for k, x := range agents {
						pkt := vertexMsgPacket(st, msgs...)
						if k == 0 {
							pkt.From = from
						}
						x.handleVertexMsgs(pkt)
					}
				case op < 11:
					what = fmt.Sprintf("compute step %d", step)
					compute()
				case op == 11:
					epoch++
					what = fmt.Sprintf("view %d installs", epoch)
					if len(members) < 4 {
						members = append(members, joined) // takes some targets from this agent
						joined++
						unreplicated++
					}
					for _, x := range agents {
						mergeView(t, x, epoch, members...)
					}
				case op == 12:
					what = "the vertex table moves"
					if mailLen(a, step)+mailLen(a, step+1) > 0 {
						moved++
					}
					for _, x := range agents {
						for l := x.verts.layout; x.verts.layout == l; grown++ {
							x.verts.set(grown, 0)
						}
					}
				default:
					if len(members) < 2 {
						continue
					}
					epoch++
					gone := members[rng.Intn(len(members))]
					members = slices.DeleteFunc(members, func(id uint64) bool { return id == gone })
					addr := fmt.Sprintf("peer-%d", gone)
					what = fmt.Sprintf("view %d installs without %s", epoch, addr)
					for _, x := range agents {
						mergeView(t, x, epoch, members...)
						x.retirePeer(addr)
					}
					if a.verts.peers[addr] != nil {
						t.Fatalf("seed %d: %s left, its slot cache stayed", seed, addr)
					}
				}
				for st := step; st <= step+1; st++ {
					if got, want := mailRaw(agents[0], st), mailRaw(agents[1], st); got != want {
						t.Fatalf("seed %d, event %d (%s): step %d's mail is\n%s\nuncached\n%s", seed, ev, what, st, got, want)
					}
				}
				for addr, l := range recs[1].to {
					if got := recs[0].log(addr).msgs; fmt.Sprint(got) != fmt.Sprint(l.msgs) {
						t.Fatalf("seed %d, event %d (%s): sent %s\n%v\nuncached\n%v", seed, ev, what, addr, got, l.msgs)
					}
				}
			}
		})
	}
	t.Logf("frames onto a warm cache %d; table moves under mail %d; views that un-replicated targets %d",
		warm, moved, unreplicated)
	if warm == 0 || moved == 0 || unreplicated == 0 {
		t.Fatal("the scripts missed a case: a warm cache, a table move under mail or a view that moves targets")
	}
}

// TestPeerSlotCacheSurvivesAMoveMidFrame: a served target with no record,
// early in a frame, gets one and moves the vertex table; the rest of the
// frame, which matches the peer's last one position by position, must not
// merge by the slots cached before the move. The step's mail equals an
// uncached twin's.
func TestPeerSlotCacheSurvivesAMoveMidFrame(t *testing.T) {
	var agents [2]*Agent
	for k := range agents {
		a, _ := newRecordedAgent(t, allocTestConfig(), 512)
		rmatShare(a, 9, 4096, 5)
		startRun(a, algorithm.PageRank{}, 1, 512)
		advanceCompute(a, 0) // a dense step: received frames use the cache
		agents[k] = a
	}
	held := agents[0].store.VertexList()[:64]
	frame := func(first graph.VertexID) []wire.VertexMsg {
		msgs := []wire.VertexMsg{{Target: first, Via: first, Value: wire.Word(algorithm.FromF64(0.5))}}
		for i, v := range held {
			msgs = append(msgs, wire.VertexMsg{Target: v, Via: v, Value: wire.Word(algorithm.FromF64(float64(i)))})
		}
		return msgs
	}
	send := func(msgs []wire.VertexMsg) {
		for k, a := range agents {
			pkt := vertexMsgPacket(1, msgs...)
			if k == 0 {
				pkt.From = "peer-2"
			}
			a.handleVertexMsgs(pkt)
		}
	}
	send(frame(held[64%len(held)]))
	for _, a := range agents {
		tab := &a.verts
		for k := graph.VertexID(1 << 30); 2*(tab.used+1) <= len(tab.slots); k++ {
			tab.set(k, 0)
		}
	}
	layout := agents[0].verts.layout
	send(frame(1 << 29)) // no record here: its first one moves the table
	if agents[0].verts.layout == layout {
		t.Fatal("the frame did not move the table")
	}
	if got, want := heldMail(agents[0], 1), heldMail(agents[1], 1); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("step 1's mail (%d entries) differs from the uncached twin's (%d)", len(got), len(want))
	}
}
