package directory

import (
	"testing"
	"time"

	"elga/internal/wire"
)

// TestEvictionClosesEveryOpenRound opens one round at a time on a
// coordinator over the fake endpoint, with two members of which one has
// voted, and evicts the other: the round must close on the survivor's
// vote.
//   - A seal answers its request.
//   - A compute barrier ends its superstep; the run pauses for the
//     eviction's migration round, and once the survivor votes that round
//     closed, resumes with an Advance of the step it paused at.
//   - An async probe arms the next probe, which then ends the run.
func TestEvictionClosesEveryOpenRound(t *testing.T) {
	const voter, silent = "agent-voter", "agent-silent"
	setup := func(t *testing.T) (*Directory, *fakeEndpoint, uint64, uint64) {
		cfg := testCfg()
		cfg.LeaseTimeout = time.Hour
		d, ep := fakeCoordinator(t, cfg)
		return d, ep, fakeJoin(t, d, ep, voter), fakeJoin(t, d, ep, silent)
	}
	// request hands d a client request of type typ.
	request := func(t *testing.T, d *Directory, typ wire.Type, payload []byte) {
		t.Helper()
		if !d.Handle(&wire.Packet{Type: typ, From: "client", Req: 9, Payload: payload}) {
			t.Fatalf("a %s request must be parked until it is answered", typ)
		}
	}
	// lastAdvance decodes the last Advance sent to the voter.
	lastAdvance := func(t *testing.T, ep *fakeEndpoint) *wire.Advance {
		t.Helper()
		pkt := ep.lastTo(voter, wire.TAdvance)
		if pkt == nil {
			t.Fatal("no Advance sent")
		}
		adv, err := wire.DecodeAdvance(pkt.Payload)
		if err != nil {
			t.Fatal(err)
		}
		return adv
	}
	// startRun requests a WCC run and votes the seal that goes first.
	startRun := func(t *testing.T, d *Directory, ids map[string]uint64, async bool) {
		t.Helper()
		request(t, d, wire.TRunAlgo, wire.AppendAlgoStart(nil, &wire.AlgoStart{Algo: "wcc", FromScratch: true, Async: async}))
		for addr, id := range ids {
			vote(d, addr, id, wire.Ready{Step: uint32(d.batchID), Phase: wire.PhaseBatch})
		}
		if d.run == nil {
			t.Fatal("the run did not start")
		}
	}

	t.Run("seal", func(t *testing.T) {
		d, ep, id, dead := setup(t)
		request(t, d, wire.TIngest, nil)
		if d.seal == nil {
			t.Fatal("no seal opened")
		}
		vote(d, voter, id, wire.Ready{Step: uint32(d.batchID), Phase: wire.PhaseBatch, Masters: 42})
		d.evictAgents([]uint64{dead})
		if d.seal != nil || ep.lastTo("client", wire.TPong) == nil {
			t.Fatal("the seal stayed open after the agent it waited for was evicted")
		}
		if d.n != 42 {
			t.Fatalf("vertex count %d after the seal, want the survivor's 42", d.n)
		}
	})

	t.Run("compute", func(t *testing.T) {
		d, ep, id, dead := setup(t)
		startRun(t, d, map[string]uint64{voter: id, silent: dead}, false)
		if adv := lastAdvance(t, ep); adv.Phase != wire.PhaseCompute || adv.Step != 0 {
			t.Fatalf("the run opened with %+v, want step 0's compute phase", adv)
		}
		vote(d, voter, id, wire.Ready{Step: 0, Phase: wire.PhaseCompute, ActiveNext: 5})
		d.evictAgents([]uint64{dead})
		r := d.run
		if r == nil || r.barrier != nil || !r.paused || r.step != 1 {
			t.Fatalf("after the eviction the run is %+v, want it paused at step 1", r)
		}
		if d.migration == nil {
			t.Fatal("the eviction opened no migration round")
		}
		vote(d, voter, id, wire.Ready{Step: d.migration.step, Phase: wire.PhaseMigrate})
		if adv := lastAdvance(t, ep); adv.Phase != wire.PhaseCompute || adv.Step != 1 || r.paused {
			t.Fatalf("after the migration round the run sent %+v (paused %v), want step 1's compute phase", adv, r.paused)
		}
	})

	t.Run("probe", func(t *testing.T) {
		d, ep, id, dead := setup(t)
		startRun(t, d, map[string]uint64{voter: id, silent: dead}, true)
		// fireProbe fires the armed probe tick, the one with no tag.
		fireProbe := func() uint32 {
			t.Helper()
			for i, tick := range ep.ticks {
				if len(tick.tag) == 0 {
					ep.ticks = append(ep.ticks[:i], ep.ticks[i+1:]...)
					d.Handle(&wire.Packet{Type: wire.TTick, From: ep.addr})
					if d.run == nil || d.run.barrier == nil {
						t.Fatal("the probe tick opened no probe round")
					}
					return d.run.barrier.step
				}
			}
			t.Fatal("no probe armed")
			return 0
		}
		step := fireProbe()
		vote(d, voter, id, wire.Ready{Step: step, Phase: wire.PhaseAsyncProbe, Sent: 3, Received: 3})
		d.evictAgents([]uint64{dead})
		if d.run == nil || d.run.barrier != nil {
			t.Fatal("the probe round stayed open after the agent it waited for was evicted")
		}
		vote(d, voter, id, wire.Ready{Step: fireProbe(), Phase: wire.PhaseAsyncProbe, Sent: 3, Received: 3})
		if d.run != nil || ep.lastTo("client", wire.TRunReply) == nil {
			t.Fatal("two probes with the same counters did not end the run")
		}
	})
}
