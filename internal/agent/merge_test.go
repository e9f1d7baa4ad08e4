package agent

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"elga/internal/algorithm"
	"elga/internal/consistent"
	"elga/internal/graph"
	"elga/internal/wire"
)

// concatFold is the path mergeShards replaced, kept as its reference: the
// shard buffers for one destination concatenated in shard order (msgs), then
// gathered by target in place, one entry per target in first-seen order
// carrying the first source as Via.
func concatFold(prog algorithm.Program, msgs []wire.VertexMsg) []wire.VertexMsg {
	var t aggTable
	zero := prog.ZeroAgg()
	out := 0
	for _, m := range msgs {
		s, fresh := t.put(m.Target)
		if fresh {
			s.agg = algorithm.Word(out)
			m.Value = wire.Word(prog.Gather(zero, algorithm.Word(m.Value)))
			msgs[out] = m
			out++
			continue
		}
		d := &msgs[s.agg]
		d.Value = wire.Word(prog.Gather(algorithm.Word(d.Value), algorithm.Word(m.Value)))
	}
	return msgs[:out]
}

// mergeMsg is a scattered message for prog: targets from a small range, so
// shards overlap on them.
func mergeMsg(rng *rand.Rand, prog algorithm.Program) wire.VertexMsg {
	m := wire.VertexMsg{Target: graph.VertexID(rng.Intn(24)), Via: graph.VertexID(100 + rng.Intn(1000))}
	switch prog.(type) {
	case algorithm.PageRank:
		m.Value = wire.Word(algorithm.FromF64(rng.Float64() / 7))
	case inDegreeProg:
		m.Value = 7
	default:
		m.Value = wire.Word(rng.Intn(1 << 20))
	}
	return m
}

// fillShards scatters n random messages from each shard toward random
// members, self included.
func fillShards(rng *rand.Rand, prog algorithm.Program, shards []*computeShard, n int) {
	for _, s := range shards {
		for j := 0; j < n; j++ {
			s.add(rng.Intn(len(s.members)), mergeMsg(rng, prog))
		}
	}
}

// checkMerge merges shards into step and compares what leaves with the
// reference: after any earlier sends, one TVertexMsgs frame per remote
// member with messages, in member order, whose payload is byte for byte the
// encoding of concatFold over that member's buffers; and mail for step
// holding the self-addressed messages gathered in shard order.
func checkMerge(t *testing.T, a *Agent, rec *recorder, shards []*computeShard, step uint32) {
	t.Helper()
	checkMergeAs(t, a, rec, shards, shards, step)
}

// checkMergeAs is checkMerge against the buffers of ref, concatenated in
// order, in place of the merged shards'.
func checkMergeAs(t *testing.T, a *Agent, rec *recorder, shards, ref []*computeShard, step uint32) {
	t.Helper()
	prog, self := a.run.prog, consistent.AgentID(a.id)
	members := shards[0].members
	var want [][]byte
	var to []string
	var mail modelMail
	for i, dst := range members {
		var concat []wire.VertexMsg
		for _, s := range ref {
			concat = append(concat, s.bufs[i]...)
		}
		if dst == self {
			for _, m := range concat {
				mail.gather(prog, m.Target, algorithm.Word(m.Value))
			}
			continue
		}
		if len(concat) == 0 {
			continue
		}
		addr, _ := a.router.AddrOf(dst)
		to = append(to, addr)
		want = append(want, wire.AppendVertexMsgBatch(nil, &wire.VertexMsgBatch{Step: step, Msgs: concatFold(prog, concat)}))
	}
	sent, seen := len(rec.order), map[string]int{}
	for addr, l := range rec.to {
		seen[addr] = len(l.pkts)
	}

	a.mergeShards(shards, step, self)

	if got := rec.order[sent:]; fmt.Sprint(got) != fmt.Sprint(to) {
		t.Fatalf("frames went to %v, want %v", got, to)
	}
	for k, addr := range to {
		pkt := rec.log(addr).pkts[seen[addr]]
		seen[addr]++
		if pkt.Type != wire.TVertexMsgs || !bytes.Equal(pkt.Payload, want[k]) {
			t.Fatalf("frame %d to %s: %s payload %x, want %x", k, addr, pkt.Type, pkt.Payload, want[k])
		}
	}
	if got, held := heldMail(a, step), mail.entries(); fmt.Sprint(got) != fmt.Sprint(held) {
		t.Fatalf("mail for step %d holds %v, want %v", step, got, held)
	}
	for _, s := range shards {
		for i, b := range s.bufs {
			if len(b) != 0 {
				t.Fatalf("shard buffer %d holds %d messages after the merge", i, len(b))
			}
		}
	}
}

// mergeView installs a view of agent 1 (this one) and the peers named.
func mergeView(t *testing.T, a *Agent, epoch uint64, peers ...uint64) {
	t.Helper()
	v := &wire.View{Epoch: epoch, BatchID: epoch, N: 64, Agents: []wire.AgentInfo{{ID: a.id, Addr: a.ep.Addr()}}}
	for _, id := range peers {
		v.Agents = append(v.Agents, wire.AgentInfo{ID: id, Addr: fmt.Sprintf("peer-%d", id)})
	}
	if _, err := a.installView(v); err != nil {
		t.Fatal(err)
	}
}

// TestMergeShardsMatchesConcatFold: what mergeShards sends and delivers is
// what concatenating the shard buffers, folding and encoding gave, byte for
// byte — for 1, 2 and 3 shards with overlapping targets under PageRank's
// sum, WCC's min and the counting program whose Gather is not its MergeAgg;
// for shards whose buffers outnumber the members after a view shrank (and
// lose the extra ones at the run's end); and for the shards the forced
// worker pool filled, whose messages concatenate in work-list order, not
// shard order.
func TestMergeShardsMatchesConcatFold(t *testing.T) {
	for _, prog := range []algorithm.Program{algorithm.PageRank{}, algorithm.WCC{}, inDegreeProg{}} {
		for n := 1; n <= 3; n++ {
			t.Run(fmt.Sprintf("%s/%d-shards", prog.Name(), n), func(t *testing.T) {
				a, rec := newRecordedAgent(t, allocTestConfig(), 64)
				installRun(a, prog, 64)
				mergeView(t, a, 2, 2, 3, 4)
				rng := rand.New(rand.NewSource(int64(n)))
				for step := uint32(1); step <= 3; step++ {
					shards := a.getShards(n)
					fillShards(rng, prog, shards, 40)
					checkMerge(t, a, rec, shards, step)
				}
			})
		}
	}
	t.Run("shrunk-view", func(t *testing.T) {
		a, rec := newRecordedAgent(t, allocTestConfig(), 64)
		prog := inDegreeProg{}
		installRun(a, prog, 64)
		rng := rand.New(rand.NewSource(9))
		mergeView(t, a, 2, 2, 3, 4)
		shards := a.getShards(2)
		fillShards(rng, prog, shards, 40)
		checkMerge(t, a, rec, shards, 1)
		// Two members leave: the first two shards keep four buffers, the
		// third, new, has two.
		mergeView(t, a, 3, 3)
		shards = a.getShards(3)
		if len(shards[0].bufs) != 4 || len(shards[2].bufs) != 2 {
			t.Fatalf("shards hold %d and %d buffers, want 4 and 2", len(shards[0].bufs), len(shards[2].bufs))
		}
		fillShards(rng, prog, shards, 40)
		checkMerge(t, a, rec, shards, 2)
		// The run's end drops the buffers of the positions the view lost.
		a.trimScratch()
		for i, s := range shards {
			if len(s.bufs) != 2 {
				t.Fatalf("shard %d keeps %d buffers under a view of 2 members", i, len(s.bufs))
			}
		}
	})
	t.Run("pool", func(t *testing.T) {
		SetComputeParallelism(4, 1)
		t.Cleanup(func() { SetComputeParallelism(0, 0) })
		a, rec := newRecordedAgent(t, allocTestConfig(), 64)
		prog := algorithm.PageRank{}
		installRun(a, prog, 64)
		mergeView(t, a, 2, 2, 3, 4)
		rng := rand.New(rand.NewSource(11))
		type item struct {
			dst int
			m   wire.VertexMsg
		}
		items := make([][]item, 256)
		for i := range items {
			for j := 0; j < 4; j++ {
				items[i] = append(items[i], item{rng.Intn(4), mergeMsg(rng, prog)})
			}
		}
		for step := uint32(1); step <= 3; step++ {
			shards := a.runSharded(len(items), func(s *computeShard, i int) {
				for _, it := range items[i] {
					s.add(it.dst, it.m)
				}
			})
			if len(shards) != 4 {
				t.Fatalf("the forced pool ran %d shards, want 4", len(shards))
			}
			ref := &computeShard{}
			ref.bind(shards[0].members)
			for i := range items {
				for _, it := range items[i] {
					ref.add(it.dst, it.m)
				}
			}
			checkMergeAs(t, a, rec, shards, []*computeShard{ref}, step)
		}
	})
}
