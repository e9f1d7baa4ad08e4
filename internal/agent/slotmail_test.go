package agent

import (
	"fmt"
	"math/rand"
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
// it, and the slot mail's arrays with it) and a run whose first work list
// differs; every dense step sends and delivers what the push path did, byte
// for byte, at one worker and at four.
func TestDensePlanOutlivesItsRun(t *testing.T) {
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			SetComputeParallelism(workers, 1)
			t.Cleanup(func() { SetComputeParallelism(0, 0) })
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
			if p := &a.dense; p.src != nil || p.work != nil || p.msgs != nil || a.verts.mail.agg != nil {
				t.Fatal("the plan or the slot mail's arrays outlived a run that used none")
			}
			run(algorithm.PageRank{}, 3, 5)

			run(halfRank{}, 1, 6)
			run(algorithm.PageRank{}, 3, 7)
		})
	}
}

// mailRaw is a step's mail and the raw aggregates its table buffers.
func mailRaw(a *Agent, step uint32) string {
	raw := map[graph.VertexID][]algorithm.Word{}
	if t := a.mailbox[step]; t != nil {
		raw = t.raw
	}
	return fmt.Sprint(stepMail(a, step), raw)
}

// TestSlotMailMatchesTable: whatever an agent's events, a step's mail holds,
// wherever it is held, what a plain aggTable fed the same deliveries under
// the table's merge, gather and eager rules holds — the same entries in the
// same order with the same aggregate bits, and the same raw buffer. Each
// seed drives one agent of a four-member view through a random script of
// peer batches (targets held here, targets with no record, targets held
// elsewhere, which are forwarded; some before the run or the plan exists),
// run starts, compute steps (dense: PageRank or PPR), checkpoints, view
// installs, vertex-table moves (value updates for vertices new here, until
// the table grows) and run ends, checking after each event. A
// failure names its seed: go test -run 'TestSlotMailMatchesTable/seed-N$'.
func TestSlotMailMatchesTable(t *testing.T) {
	var seen struct{ slotted, absorbed, moved, spilled int }
	for seed := int64(1); seed <= 200; seed++ {
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			SetComputeParallelism(1+3*int(seed%2), 1)
			t.Cleanup(func() { SetComputeParallelism(0, 0) })
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

			model := map[uint32]*aggTable{}
			modelOf := func(step uint32) *aggTable {
				if model[step] == nil {
					model[step] = &aggTable{}
				}
				return model[step]
			}
			id, running, step, epoch, grown := uint32(0), false, uint32(0), uint64(2), graph.VertexID(1<<22)
			slotted := func(step uint32) bool { return a.verts.mail.open && a.verts.mail.step == step }
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
					open := slotted(st)
					mt, prog, self := modelOf(st), a.prog(), a.selfIndex()
					for _, m := range msgs {
						s, fresh := mt.put(m.Target)
						if fresh && !a.isReplicaOf(m.Target) {
							if dst, ok := a.router.EdgeOwnerIndex(m.Target, m.Via); ok && dst != self {
								mt.kill(s)
								continue
							}
						}
						mt.merge(prog, s, algorithm.Word(m.Value))
					}
					a.handleVertexMsgs(vertexMsgPacket(st, msgs...))
					if open && !slotted(st) {
						seen.spilled++
					}
				case op < 8 && running:
					what = fmt.Sprintf("compute step %d", step)
					delete(model, step)
					tabled := a.mailbox[step+1] != nil && a.mailbox[step+1].raw == nil
					advanceCompute(a, step)
					s, self := pushShard(a), a.selfIndex()
					mt := modelOf(step + 1)
					for _, m := range s.bufs[self] {
						mt.gather(a.run.prog, m.Target, algorithm.Word(m.Value))
					}
					if slotted(step + 1) {
						seen.slotted++
						if tabled {
							seen.absorbed++
						}
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
					if a.verts.mail.open {
						seen.moved++
					}
					for l := a.verts.layout; a.verts.layout == l; grown++ {
						a.verts.set(grown, 0)
					}
				}
				for st := uint32(0); st <= step+2; st++ {
					want := fmt.Sprint(mailOf(model[st]), map[graph.VertexID][]algorithm.Word{})
					if model[st] != nil && model[st].raw != nil {
						want = fmt.Sprint(mailOf(model[st]), model[st].raw)
					}
					if got := mailRaw(a, st); got != want {
						t.Fatalf("seed %d, event %d (%s): step %d's mail is\n%s\nwant\n%s", seed, ev, what, st, got, want)
					}
				}
			}
		})
	}
	t.Logf("steps with slot mail %d, of which absorbed a table %d; table moves under slot mail %d; spills at a batch %d",
		seen.slotted, seen.absorbed, seen.moved, seen.spilled)
	if seen.slotted == 0 || seen.absorbed == 0 || seen.moved == 0 || seen.spilled == 0 {
		t.Fatal("the scripts missed a case: slot mail, an absorbed table, a move under slot mail or a spill")
	}
}
