package agent

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"elga/internal/algorithm"
	"elga/internal/checkpoint"
	"elga/internal/graph"
	"elga/internal/wire"
)

// startRun starts run id of prog from scratch on a as a TAlgoStart does. The
// frame names prog's registered program; a test program takes its place.
func startRun(a *Agent, prog algorithm.Program, id uint32, n uint64) {
	spec := &wire.AlgoStart{RunID: id, Algo: prog.Name(), FromScratch: true, Source: 1}
	a.handleAlgoStart(&wire.Packet{Type: wire.TAlgoStart, Payload: wire.AppendAlgoStart(nil, spec)})
	a.run.prog, a.run.ctx.N = prog, n
}

// endRun ends run id on a as a TAlgoDone does.
func endRun(a *Agent, id uint32) {
	a.handleAlgoDone(&wire.Packet{Type: wire.TAlgoDone, Payload: wire.AppendAlgoDone(nil, &wire.AlgoDone{RunID: id})})
}

// halfRank is PageRank whose runs start with the even vertices alone active:
// its first work list is not PageRank's.
type halfRank struct{ algorithm.PageRank }

func (halfRank) InitActive(v graph.VertexID, _ *algorithm.Context) bool { return v%2 == 0 }

// TestDensePlanOutlivesItsRun: a dense plan is built once for PageRank,
// PageRank again and PPR on an unchanged graph, and built again after each of
// a sealed batch, a view change, a vertex-table move, a BFS run (which drops
// it) and a run whose first work list
// differs; every dense step sends and delivers what the push path did, byte
// for byte.
func TestDensePlanOutlivesItsRun(t *testing.T) {
	// Every step runs on the agent's one event loop; the subtest keeps the
	// name it has had since steps could also run on four workers.
	t.Run("workers=1", func(t *testing.T) {
		a, rec := newRecordedAgent(t, allocTestConfig(), 1024)
		mergeView(t, a, 2, 2, 3, 4)
		rmatShare(a, 10, 8192, 3)
		id := uint32(0)
		run := func(prog algorithm.Program, steps int, builds int) {
			t.Helper()
			id++
			startRun(a, prog, id, 1024)
			for step := 0; step < steps; step++ {
				if prog.HaltOnQuiescence() {
					advanceCompute(a, uint32(step))
				} else {
					computeMatchesPush(t, a, rec, uint32(step), true)
				}
			}
			endRun(a, id)
			if a.dense.builds != builds {
				t.Fatalf("run %d (%s): %d plans built, want %d", id, prog.Name(), a.dense.builds, builds)
			}
		}
		run(algorithm.PageRank{}, 3, 1)
		run(algorithm.PageRank{}, 3, 1)
		run(algorithm.PPR{}, 3, 1)

		// A sealed batch moves the store's version.
		v := a.verts.slots[a.dense.src[0]].key
		if !a.store.AddEdge(v, 1<<20, graph.Out) {
			t.Fatal("the batch changed nothing")
		}
		a.store.Compact()
		run(algorithm.PageRank{}, 3, 2)

		mergeView(t, a, 3, 2, 3, 4)
		run(algorithm.PageRank{}, 3, 3)

		for k, l := graph.VertexID(1<<21), a.verts.layout; a.verts.layout == l; k++ {
			a.verts.at(k)
		}
		run(algorithm.PageRank{}, 3, 4)

		run(algorithm.BFS{}, 3, 4)
		if p := &a.dense; p.src != nil || p.work != nil || p.msgs != nil {
			t.Fatal("the plan outlived a run that used none")
		}
		run(algorithm.PageRank{}, 3, 5)

		run(halfRank{}, 1, 6)
		run(algorithm.PageRank{}, 3, 7)
	})
}

// mailRaw is a step's mail at a and the aggregates that wait raw for it.
func mailRaw(a *Agent, step uint32) string {
	var raw []wire.VertexMsg
	for _, e := range a.prerun {
		if e.step == step {
			raw = append(raw, e.msg)
		}
	}
	return fmt.Sprint(heldMail(a, step), raw)
}

// TestSlotMailMatchesTable: whatever an agent's events, a step's mail held by
// vertex-table slot, and what waits raw for it, is what a plain model fed the
// same deliveries holds: per step, the targets in first-arrival order with
// their aggregate bits, and the list of aggregates that arrived with no run
// installed. When a step is read, that list merges in, in arrival order,
// after what the step held. Each seed drives one agent of a four-member view
// through a random script of peer batches (targets held here, targets with no
// record, targets held elsewhere, which are forwarded; some before any run,
// some for step s+1 while step s is unread), run starts, compute steps
// (dense: PageRank or PPR), checkpoints, view installs, vertex-table moves
// (value updates for vertices new here, until the table grows) and run ends,
// checking after each event. A failure names its seed: go test -run
// 'TestSlotMailMatchesTable/seed-N$'.
func TestSlotMailMatchesTable(t *testing.T) {
	var seen struct{ second, prerun, moved int }
	for seed := int64(1); seed <= 200; seed++ {
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			a, _ := newRecordedAgent(t, allocTestConfig(), 256)
			mergeView(t, a, 2, 2, 3, 4)
			el := rmatShare(a, 7, 512, seed)
			sink, err := checkpoint.NewDirSink(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			a.ckpt.cfg = checkpoint.Config{Enabled: true, Key: "slot", EverySteps: 1 << 30}
			a.ckpt.writer = checkpoint.NewWriter(sink, "slot")
			t.Cleanup(a.closeCheckpoint)
			var keys []graph.VertexID
			for _, e := range el {
				keys = append(keys, e.Src, e.Dst)
			}
			for k := graph.VertexID(1 << 20); k < 1<<20+64; k++ {
				keys = append(keys, k) // held nowhere: no record here, some placed here
			}

			model := map[uint32]*modelMail{}
			modelOf := func(step uint32) *modelMail {
				if model[step] == nil {
					model[step] = &modelMail{}
				}
				return model[step]
			}
			var raw []stepMsg // the model's aggregates that arrived with no run
			served := func(m wire.VertexMsg) bool {
				dst, ok := a.router.EdgeOwnerIndex(m.Target, m.Via)
				return a.isReplicaOf(m.Target) || !ok || dst == a.selfIndex()
			}
			id, running, step, epoch, grown := uint32(0), false, uint32(0), uint64(2), graph.VertexID(1<<22)
			for ev := 0; ev < 48; ev++ {
				var what string
				switch op := rng.Intn(13); {
				case op < 5:
					st := max(step+uint32(rng.Intn(2)), 1)
					msgs := make([]wire.VertexMsg, 1+rng.Intn(8))
					for i := range msgs {
						msgs[i] = wire.VertexMsg{Target: keys[rng.Intn(len(keys))], Via: keys[rng.Intn(len(keys))],
							Value: wire.Word(algorithm.FromF64(rng.Float64()))}
					}
					what = fmt.Sprintf("a batch of %d for step %d", len(msgs), st)
					prog := a.prog()
					if prog == nil {
						seen.prerun++
					} else if st == step+1 && model[step] != nil && len(model[step].keys) > 0 {
						seen.second++
					}
					for _, m := range msgs {
						mt := modelOf(st)
						_, held := mt.agg[m.Target]
						switch {
						case prog == nil && served(m):
							raw = append(raw, stepMsg{st, m})
						case prog != nil && (held || served(m)):
							mt.merge(prog, m.Target, algorithm.Word(m.Value))
						}
					}
					a.handleVertexMsgs(vertexMsgPacket(st, msgs...))
				case op < 8 && running:
					what = fmt.Sprintf("compute step %d", step)
					// The step as read: its mail, then what waited raw.
					mt, prog := modelOf(step), a.run.prog
					raw = slices.DeleteFunc(raw, func(e stepMsg) bool {
						if e.step != step {
							return false
						}
						w, ok := mt.agg[e.msg.Target]
						if !ok {
							w = prog.ZeroAgg()
						}
						mt.put(e.msg.Target, prog.MergeAgg(w, algorithm.Word(e.msg.Value)))
						return true
					})
					a.stepMail(step)
					if got, want := fmt.Sprint(heldMail(a, step)), fmt.Sprint(mt.entries()); got != want {
						t.Fatalf("seed %d, event %d (%s): step %d's mail as read is\n%s\nwant\n%s", seed, ev, what, step, got, want)
					}
					delete(model, step)
					advanceCompute(a, step)
					s, self := pushShard(a), a.selfIndex()
					mt = modelOf(step + 1)
					for _, m := range s.bufs[self] {
						mt.gather(a.run.prog, m.Target, algorithm.Word(m.Value))
					}
					step++
				case op < 8:
					id, running, step = id+1, true, 0
					what = fmt.Sprintf("run %d starts", id)
					prog := algorithm.Program(algorithm.PageRank{})
					if rng.Intn(2) == 0 {
						prog = algorithm.PPR{}
					}
					startRun(a, prog, id, 256)
				case op == 8 && running:
					what = "the run ends"
					endRun(a, id)
					clear(model)
					raw = nil
					running, step = false, 0
				case op == 8 || op == 9:
					what = "a checkpoint"
					a.checkpointNow(true)
				case op == 10:
					epoch++
					what = fmt.Sprintf("view %d installs", epoch)
					mergeView(t, a, epoch, 2, 3, 4)
				default:
					// Value updates for vertices new here grow the table
					// until it moves every record.
					what = "the vertex table moves"
					if mailLen(a, step)+mailLen(a, step+1) > 0 {
						seen.moved++
					}
					for l := a.verts.layout; a.verts.layout == l; grown++ {
						a.verts.set(grown, 0)
					}
				}
				for st := uint32(0); st <= step+2; st++ {
					var want []wire.VertexMsg
					for _, e := range raw {
						if e.step == st {
							want = append(want, e.msg)
						}
					}
					var entries []mailEntry
					if model[st] != nil {
						entries = model[st].entries()
					}
					if got, want := mailRaw(a, st), fmt.Sprint(entries, want); got != want {
						t.Fatalf("seed %d, event %d (%s): step %d's mail is\n%s\nwant\n%s", seed, ev, what, st, got, want)
					}
				}
			}
		})
	}
	t.Logf("batches for step s+1 while step s held mail %d; batches with no run %d; table moves under mail %d",
		seen.second, seen.prerun, seen.moved)
	if seen.second == 0 || seen.prerun == 0 || seen.moved == 0 {
		t.Fatal("the scripts missed a case: both buffers in use, mail before a run, or a move under mail")
	}
}

// TestUnreadMailHasNoArrays: a step's mail takes its arrays with its first
// entry. A from-scratch WCC step 0, which no mail reached, leaves its
// parity's buffer without them; what its scatters gathered here for step 1
// is held in arrays fitted to the table, and step 1 reads them.
func TestUnreadMailHasNoArrays(t *testing.T) {
	a := newLoopbackAgent(t, allocTestConfig(), 64)
	const n = 16
	for v := graph.VertexID(0); v < n; v++ {
		a.store.AddEdge(v, (v+1)%n, graph.Out)
		a.store.AddEdge(v, (v+1)%n, graph.In)
	}
	installRun(a, algorithm.WCC{}, 64)
	advanceCompute(a, 0)
	if m := &a.verts.mail[0]; m.agg != nil || m.has != nil {
		t.Fatalf("step 0 read no mail, yet its buffer holds arrays of %d and %d words", len(m.agg), len(m.has))
	}
	if m := &a.verts.mail[1]; len(m.order) != n || len(m.agg) != len(a.verts.slots) || len(m.has) != (len(a.verts.slots)+63)/64 {
		t.Fatalf("step 1's mail holds %d entries in arrays of %d and %d words for %d slots",
			len(m.order), len(m.agg), len(m.has), len(a.verts.slots))
	}
	advanceCompute(a, 1)
	// On the ring each vertex takes the smaller of its neighbours' labels.
	for v := graph.VertexID(0); v < n; v++ {
		want := min(v, (v+n-1)%n, (v+1)%n)
		if got := stateOf(a, v); got != algorithm.Word(want) {
			t.Fatalf("after step 1 vertex %d holds %d, want %d", v, got, want)
		}
	}
}
