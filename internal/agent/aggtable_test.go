package agent

import (
	"fmt"
	"math/rand"
	"testing"

	"elga/internal/algorithm"
	"elga/internal/consistent"
	"elga/internal/graph"
	"elga/internal/wire"
)

// lookup returns v's slot in t, or nil: a probe that inserts nothing.
func lookup(t *aggTable, v graph.VertexID) *aggSlot {
	if len(t.slots) == 0 {
		return nil
	}
	mask := uint64(len(t.slots) - 1)
	for i := (uint64(v) * fib) >> t.shift; ; i = (i + 1) & mask {
		if s := &t.slots[i]; s.gen != t.gen {
			return nil
		} else if s.key == v {
			return s
		}
	}
}

// TestAggTableMatchesMapModel drives random puts and lookups against a Go
// map and an insertion-order list, through several growths per round: put
// is fresh exactly for a key the map lacks, a lookup agrees with the map on
// every key ever used, the order lists the keys as first put, and reset
// leaves every slot empty.
func TestAggTableMatchesMapModel(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	var tab aggTable
	for round := 0; round < 6; round++ {
		model := make(map[graph.VertexID]algorithm.Word)
		var order []graph.VertexID // first insertion of every key this round
		// Sparse and clustered keys; enough of them for >= 3 doublings of a
		// fresh table (64 → 512 slots and beyond).
		keys := 300 + rng.Intn(900)
		keyOf := func() graph.VertexID {
			k := graph.VertexID(rng.Intn(keys))
			if k%3 == 0 {
				k = k << 40
			}
			return k
		}
		slots0 := len(tab.slots)
		for op := 0; op < 8*keys; op++ {
			k := keyOf()
			if rng.Intn(10) < 6 {
				s, fresh := tab.put(k)
				_, had := model[k]
				if fresh == had {
					t.Fatalf("round %d: put(%d) fresh=%v but model had=%v", round, k, fresh, had)
				}
				if fresh {
					s.agg = 0
					order = append(order, k)
				}
				s.agg += algorithm.Word(op)
				model[k] += algorithm.Word(op)
				continue
			}
			s := lookup(&tab, k)
			w, had := model[k]
			if (s != nil) != had || (had && s.agg != w) {
				t.Fatalf("round %d: lookup(%d) = %+v, model %d/%v", round, k, s, w, had)
			}
		}
		if round == 0 && len(tab.slots) < 8*64 {
			t.Fatalf("table grew from %d to only %d slots; the test wants >= 3 growths", slots0, len(tab.slots))
		}
		if 2*len(tab.order) > len(tab.slots) {
			t.Fatalf("load above 1/2: %d entries in %d slots", len(tab.order), len(tab.slots))
		}
		if len(tab.order) != len(order) {
			t.Fatalf("round %d: the order lists %d entries, want %d", round, len(tab.order), len(order))
		}
		for i, si := range tab.order {
			if s := &tab.slots[si]; s.key != order[i] || s.agg != model[s.key] {
				t.Fatalf("round %d: entry %d is %d = %d, want %d = %d", round, i, s.key, s.agg, order[i], model[order[i]])
			}
		}
		tab.reset()
		if len(tab.order) != 0 {
			t.Fatalf("round %d: reset left %d entries in the order", round, len(tab.order))
		}
		for i := range tab.slots {
			if tab.slots[i].gen == tab.gen {
				t.Fatalf("round %d: slot %d still occupied after reset", round, i)
			}
		}
		for k := range model {
			if lookup(&tab, k) != nil {
				t.Fatalf("round %d: %d survived reset", round, k)
			}
		}
	}
}

// TestAggTableGenerationWrap: the 2^32nd reset must not resurrect slots
// stamped with the generation the counter wraps onto.
func TestAggTableGenerationWrap(t *testing.T) {
	var tab aggTable
	tab.put(7)
	tab.reset()
	tab.put(7) // stamped with generation 2
	tab.gen = ^uint32(0)
	tab.put(9)
	tab.reset() // wraps
	if tab.gen == 0 || lookup(&tab, 7) != nil || lookup(&tab, 9) != nil {
		t.Fatalf("after wrap: gen=%d lookup(7)=%v lookup(9)=%v", tab.gen, lookup(&tab, 7), lookup(&tab, 9))
	}
	tab.reset() // generation 2 again
	if lookup(&tab, 7) != nil {
		t.Fatal("entry from a previous generation 2 is visible again")
	}
}

// TestKilledRawEntryIsGone: an aggregate that waits raw for a run leaves
// with its vertex when a view moves the vertex away, so a later delivery for
// the same vertex, once it is served here again, starts from nothing.
func TestKilledRawEntryIsGone(t *testing.T) {
	a, rec := newRecordedAgent(t, allocTestConfig(), 64)
	mergeView(t, a, 2, 2)
	v := graph.VertexID(1)
	for a.isReplicaOf(v) {
		v++
	}
	mergeView(t, a, 3)
	mergeAt(a, 1, v, 2)
	mergeView(t, a, 4, 2)
	a.migrate(4, nil, false)
	if len(a.prerun) != 0 {
		t.Fatalf("%d raw aggregates stayed for a vertex that left", len(a.prerun))
	}
	if got := rec.log("peer-2").msgs; len(got) != 1 || got[0] != (wire.VertexMsg{Target: v, Via: v, Value: 2}) {
		t.Fatalf("peer received %+v, want the raw aggregate as it came", got)
	}
	mergeView(t, a, 5)
	installRun(a, algorithm.WCC{}, 64)
	mergeAt(a, 1, v, 8)
	if got := foldOf(a, 1, v); got != 8 {
		t.Fatalf("fold after the move and a merge = %d, want 8 (the re-routed raw 2 must not return)", got)
	}
}

// foldCase is one flush-combine scenario: msgs scattered toward one peer.
type foldCase struct {
	name string
	prog algorithm.Program
	msgs []wire.VertexMsg
}

// TestFlushFoldsByTarget: a merge of N messages onto T distinct targets,
// scattered by two shards, encodes exactly T entries, in first-seen order,
// each carrying the per-target Gather fold and the first source as Via.
func TestFlushFoldsByTarget(t *testing.T) {
	f := func(x float64) wire.Word { return wire.Word(algorithm.FromF64(x)) }
	cases := []foldCase{
		{"pagerank-sum", algorithm.PageRank{}, []wire.VertexMsg{
			{Target: 9, Via: 1, Value: f(0.25)}, {Target: 4, Via: 1, Value: f(0.5)},
			{Target: 9, Via: 2, Value: f(0.125)}, {Target: 9, Via: 3, Value: f(1)},
			{Target: 4, Via: 3, Value: f(2)}, {Target: 1 << 40, Via: 3, Value: f(3)},
		}},
		{"wcc-min", algorithm.WCC{}, []wire.VertexMsg{
			{Target: 9, Via: 5, Value: 5}, {Target: 9, Via: 3, Value: 3},
			{Target: 4, Via: 8, Value: 8}, {Target: 9, Via: 7, Value: 7},
		}},
		{"single", algorithm.WCC{}, []wire.VertexMsg{{Target: 2, Via: 6, Value: 6}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a, rec := newRecordedAgent(t, allocTestConfig(), 64)
			installRun(a, tc.prog, 64)
			view := &wire.View{Epoch: 2, BatchID: 2, N: 64, Agents: []wire.AgentInfo{
				{ID: a.id, Addr: a.ep.Addr()}, {ID: 2, Addr: "peer-2"},
			}}
			if _, err := a.installView(view); err != nil {
				t.Fatal(err)
			}
			at, _ := a.router.MemberIndex(2)
			// The model: per target, Gather folded from ZeroAgg in order.
			var targets []graph.VertexID
			want := make(map[graph.VertexID]wire.VertexMsg)
			for _, m := range tc.msgs {
				w, ok := want[m.Target]
				if !ok {
					targets = append(targets, m.Target)
					w = wire.VertexMsg{Target: m.Target, Via: m.Via, Value: wire.Word(tc.prog.ZeroAgg())}
				}
				w.Value = wire.Word(tc.prog.Gather(algorithm.Word(w.Value), algorithm.Word(m.Value)))
				want[m.Target] = w
			}
			s := a.sink()
			for _, m := range tc.msgs {
				s.add(at, m)
			}
			a.flushPhase(s, 3, consistent.AgentID(a.id))
			got := rec.log("peer-2").msgs
			if len(got) != len(targets) {
				t.Fatalf("%d messages onto %d targets encoded %d entries", len(tc.msgs), len(targets), len(got))
			}
			for i, v := range targets {
				if got[i] != want[v] {
					t.Errorf("entry %d = %+v, want %+v", i, got[i], want[v])
				}
			}
		})
	}
}

// TestMailboxDeliverRecycleDoesNotAllocate: once both of the mail's
// buffers have grown to their working size, a deliver-everything-then-read
// cycle — what every superstep does to its mail — touches the heap not at
// all.
func TestMailboxDeliverRecycleDoesNotAllocate(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc accounting is unreliable under -race")
	}
	a := newLoopbackAgent(t, allocTestConfig(), 64)
	installRun(a, algorithm.PageRank{}, 64)
	msgs := make([]wire.VertexMsg, 4096)
	for i := range msgs {
		msgs[i] = wire.VertexMsg{Target: graph.VertexID(i % 1024), Value: wire.Word(algorithm.FromF64(0.5))}
	}
	cycle := func(step uint32) {
		a.gatherLocal(step, msgs)
		a.stepMail(step).close()
	}
	cycle(1)
	cycle(2)
	step := uint32(3)
	if allocs := testing.AllocsPerRun(50, func() { cycle(step); step++ }); allocs > 0 {
		t.Fatalf("steady-state deliver+read cycle allocates %v times, want 0", allocs)
	}
}

// BenchmarkMailboxDeliver is one superstep's received mail on
// pagerank-static's scale: 120k aggregates onto 16k held vertices, in
// frames of 512, taken in as acceptAggs takes them, then read. probe merges
// by slot after one vertex-table probe a message; cached has each frame sent
// by a peer of its own, which sends the same frame every step, as a standing
// dense plan's sender does: after the first step every message merges by
// the slot its peer's cache holds.
func BenchmarkMailboxDeliver(b *testing.B) {
	for _, mode := range []string{"probe", "cached"} {
		b.Run(mode, func(b *testing.B) {
			a := newLoopbackAgent(b, allocTestConfig(), 64)
			installRun(a, algorithm.PageRank{}, 64)
			rng := rand.New(rand.NewSource(1))
			msgs := make([]wire.VertexMsg, 120_000)
			for i := range msgs {
				msgs[i] = wire.VertexMsg{Target: graph.VertexID(rng.Intn(16_384)), Value: wire.Word(algorithm.FromF64(0.5))}
			}
			for v := graph.VertexID(0); v < 16_384; v++ {
				a.verts.set(v, 0)
			}
			from := make([]string, (len(msgs)+511)/512)
			for k := range from {
				if mode == "cached" {
					from[k] = fmt.Sprintf("peer-%d", k)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				step := uint32(i)
				for k := 0; k < len(msgs); k += 512 {
					s := a.sink()
					a.acceptAggs(s, step, msgs[k:min(k+512, len(msgs))], from[k/512])
					s.reset()
				}
				a.stepMail(step).close()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(msgs)), "ns/msg")
		})
	}
}

// BenchmarkFlushCombine folds one destination's share of a pagerank-static
// step (30k messages onto ~6k targets, hubs repeated) the way a one-shard
// merge does.
func BenchmarkFlushCombine(b *testing.B) {
	a := newLoopbackAgent(b, allocTestConfig(), 64)
	installRun(a, algorithm.PageRank{}, 64)
	rng := rand.New(rand.NewSource(1))
	zipf := rand.NewZipf(rng, 1.1, 8, 1<<14)
	src := make([]wire.VertexMsg, 30_000)
	for i := range src {
		src[i] = wire.VertexMsg{
			Target: graph.VertexID(zipf.Uint64()), Via: graph.VertexID(i / 8),
			Value: wire.Word(algorithm.FromF64(0.5)),
		}
	}
	buf := make([]wire.VertexMsg, len(src))
	folded := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(buf, src)
		folded = len(a.foldByTarget(buf[:0], buf))
	}
	b.ReportMetric(float64(len(src))/float64(folded), "msgs/entry")
}
