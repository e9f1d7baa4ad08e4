package agent

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"elga/internal/algorithm"
	"elga/internal/consistent"
	"elga/internal/graph"
	"elga/internal/wire"
)

// concatFold is the reference for what a phase's flush sends: one
// destination's buffer (msgs) gathered by target in place, one entry per
// target in first-seen order carrying the first source as Via.
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
// messages overlap on them.
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

// fillShard scatters n random messages into s toward random members, self
// included.
func fillShard(rng *rand.Rand, prog algorithm.Program, s *computeShard, n int) {
	for j := 0; j < n; j++ {
		s.add(rng.Intn(len(s.members)), mergeMsg(rng, prog))
	}
}

// checkMerge flushes s as a phase's walk would for step and compares what
// leaves with the reference: after any earlier sends, one TVertexMsgs frame
// per remote member with messages, in member order, whose payload is byte
// for byte the encoding of concatFold over that member's buffer; and mail
// for step holding the self-addressed messages gathered in scatter order.
func checkMerge(t *testing.T, a *Agent, rec *recorder, s *computeShard, step uint32) {
	t.Helper()
	prog, self := a.run.prog, consistent.AgentID(a.id)
	var want [][]byte
	var to []string
	var mail modelMail
	for i, dst := range s.members {
		msgs := slices.Clone(s.bufs[i])
		if dst == self {
			for _, m := range msgs {
				mail.gather(prog, m.Target, algorithm.Word(m.Value))
			}
			continue
		}
		if len(msgs) == 0 {
			continue
		}
		addr, _ := a.router.AddrOf(dst)
		to = append(to, addr)
		want = append(want, wire.AppendVertexMsgBatch(nil, &wire.VertexMsgBatch{Step: step, Msgs: concatFold(prog, msgs)}))
	}
	sent, seen := len(rec.order), map[string]int{}
	for addr, l := range rec.to {
		seen[addr] = len(l.pkts)
	}

	a.flushPhase(s, step, self)

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
	for i, b := range s.bufs {
		if len(b) != 0 {
			t.Fatalf("shard buffer %d holds %d messages after the flush", i, len(b))
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

// TestMergeShardsMatchesConcatFold: what a phase's flush sends and
// delivers is what folding each destination's buffer and encoding gave, byte
// for byte, under PageRank's sum, WCC's min and the counting program whose
// Gather is not its MergeAgg; and for a shard whose buffers outnumber the
// members after a view shrank, which loses the extra ones at the run's end.
func TestMergeShardsMatchesConcatFold(t *testing.T) {
	for _, prog := range []algorithm.Program{algorithm.PageRank{}, algorithm.WCC{}, inDegreeProg{}} {
		t.Run(fmt.Sprintf("%s/1-shards", prog.Name()), func(t *testing.T) {
			a, rec := newRecordedAgent(t, allocTestConfig(), 64)
			installRun(a, prog, 64)
			mergeView(t, a, 2, 2, 3, 4)
			rng := rand.New(rand.NewSource(1))
			for step := uint32(1); step <= 3; step++ {
				s := a.sink()
				fillShard(rng, prog, s, 40)
				checkMerge(t, a, rec, s, step)
			}
		})
	}
	t.Run("shrunk-view", func(t *testing.T) {
		a, rec := newRecordedAgent(t, allocTestConfig(), 64)
		prog := inDegreeProg{}
		installRun(a, prog, 64)
		rng := rand.New(rand.NewSource(9))
		mergeView(t, a, 2, 2, 3, 4)
		s := a.sink()
		fillShard(rng, prog, s, 40)
		checkMerge(t, a, rec, s, 1)
		// Two members leave: the shard keeps its four buffers.
		mergeView(t, a, 3, 3)
		if s = a.sink(); len(s.bufs) != 4 || len(s.members) != 2 {
			t.Fatalf("the shard holds %d buffers for %d members, want 4 for 2", len(s.bufs), len(s.members))
		}
		fillShard(rng, prog, s, 40)
		checkMerge(t, a, rec, s, 2)
		// The run's end drops the buffers of the positions the view lost.
		a.trimScratch()
		if len(s.bufs) != 2 {
			t.Fatalf("the shard keeps %d buffers under a view of 2 members", len(s.bufs))
		}
	})
}
