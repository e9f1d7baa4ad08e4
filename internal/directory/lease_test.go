package directory

import (
	"slices"
	"testing"
	"time"

	"elga/internal/config"
	"elga/internal/transport"
	"elga/internal/wire"
)

// fakeEndpoint is a transport.Endpoint on a manual clock: what the
// directory sends is decoded into sent as it is sent, and the timers it arms
// wait in ticks for the test to fire them through Handle.
type fakeEndpoint struct {
	addr  string
	now   time.Time
	req   uint32
	sent  []sentPacket
	ticks []armedTick
}

type sentPacket struct {
	to  string
	pkt *wire.Packet
}

type armedTick struct {
	at  time.Time
	tag []byte
}

func (f *fakeEndpoint) Addr() string   { return f.addr }
func (f *fakeEndpoint) Now() time.Time { return f.now }

func (f *fakeEndpoint) NewFrame(typ wire.Type) []byte { return f.NewFrameHint(typ, 0) }

func (f *fakeEndpoint) NewFrameHint(typ wire.Type, hint int) []byte {
	return wire.AppendFrameHeader(wire.GetFrame(64+hint), typ, 0, f.addr)
}

func (f *fakeEndpoint) SendFrame(addr string, frame []byte) error {
	if err := wire.FinishFrame(frame); err != nil {
		return err
	}
	pkt := &wire.Packet{}
	if err := wire.UnmarshalPacketInto(pkt, frame, nil); err != nil {
		return err
	}
	f.sent = append(f.sent, sentPacket{to: addr, pkt: pkt})
	return nil
}

func (f *fakeEndpoint) SendFrameAcked(addr string, frame []byte) (uint32, error) {
	f.req++
	wire.PatchFrameReq(frame, f.req)
	return f.req, f.SendFrame(addr, frame)
}

func (f *fakeEndpoint) ReplyFrame(req *wire.Packet, frame []byte) error {
	wire.PatchFrameReq(frame, req.Req)
	return f.SendFrame(req.From, frame)
}

func (f *fakeEndpoint) After(d time.Duration, tag []byte) {
	f.ticks = append(f.ticks, armedTick{at: f.now.Add(d), tag: slices.Clone(tag)})
}

func (f *fakeEndpoint) Ack(*wire.Packet)                         {}
func (f *fakeEndpoint) Inject(wire.Type, []byte) error           { return nil }
func (f *fakeEndpoint) CancelPeer(string) []transport.FailedSend { return nil }
func (f *fakeEndpoint) Stats() transport.Stats                   { return transport.Stats{} }
func (f *fakeEndpoint) Close()                                   {}

// lastTo returns the last packet of type typ sent to addr, nil if none was.
func (f *fakeEndpoint) lastTo(addr string, typ wire.Type) *wire.Packet {
	for i := len(f.sent) - 1; i >= 0; i-- {
		if s := f.sent[i]; s.to == addr && s.pkt.Type == typ {
			return s.pkt
		}
	}
	return nil
}

// fakeCoordinator boots a coordinator over a fake endpoint on a manual
// clock (New, Boot, then the master's list through Handle), with only its
// lease tick armed.
func fakeCoordinator(t *testing.T, cfg config.Config) (*Directory, *fakeEndpoint) {
	t.Helper()
	ep := &fakeEndpoint{addr: "coord", now: time.Unix(1_000_000, 0)}
	d := New(Options{Config: cfg, MasterAddr: "master"}, ep)
	d.Boot()
	if ep.lastTo("master", wire.TRegisterDirectory) == nil {
		t.Fatal("no registration sent")
	}
	// The registration's resend and deadline ticks are not the tests'.
	ep.ticks = ep.ticks[:0]
	d.Handle(&wire.Packet{Type: wire.TDirectoryList, From: "master",
		Payload: wire.AppendStringList(nil, []string{ep.addr})})
	if err := d.boot.Err(); err != nil {
		t.Fatal(err)
	}
	if !d.coordinator || len(ep.ticks) != 1 {
		t.Fatalf("coordinator=%v with %d timers armed, want the lease tick", d.coordinator, len(ep.ticks))
	}
	return d, ep
}

// vote hands d a vote from the agent id at addr.
func vote(d *Directory, addr string, id uint64, m wire.Ready) {
	m.AgentID = id
	d.Handle(&wire.Packet{Type: wire.TReady, From: addr, Payload: wire.AppendReady(nil, &m)})
}

// fakeJoin joins an agent at addr and closes the join's migration round with
// every member's vote; it returns the agent's ID.
func fakeJoin(t *testing.T, d *Directory, ep *fakeEndpoint, addr string) uint64 {
	t.Helper()
	pkt := &wire.Packet{Type: wire.TJoin, From: addr, Req: 7,
		Payload: wire.AppendJoin(nil, &wire.Join{Addr: addr})}
	if !d.Handle(pkt) {
		t.Fatal("a join request must be parked until it is answered")
	}
	reply := ep.lastTo(addr, wire.TJoinReply)
	if reply == nil {
		t.Fatalf("%s got no join reply", addr)
	}
	jr, err := wire.DecodeJoinReply(reply.Payload)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range jr.View.Agents {
		vote(d, m.Addr, m.ID, wire.Ready{Step: uint32(jr.View.Epoch), Phase: wire.PhaseMigrate})
	}
	if d.migration != nil {
		t.Fatalf("%s's migration round is still open", addr)
	}
	return jr.AgentID
}

// TestLeaseEvictsTheSilentAgent drives a coordinator on virtual time: two
// agents join, one renews its lease, the clock passes the lease of the other,
// and the lease tick the coordinator armed is fired through Handle. Exactly
// the silent agent must be evicted, and a view without it published.
func TestLeaseEvictsTheSilentAgent(t *testing.T) {
	cfg := testCfg()
	cfg.LeaseTimeout = time.Hour
	d, ep := fakeCoordinator(t, cfg)
	live, silent := fakeJoin(t, d, ep, "agent-live"), fakeJoin(t, d, ep, "agent-silent")

	ep.now = ep.now.Add(40 * time.Minute)
	d.Handle(&wire.Packet{Type: wire.THeartbeat, From: "agent-live",
		Payload: wire.AppendHeartbeat(nil, &wire.Heartbeat{AgentID: live, Epoch: d.epoch})})
	ep.now = ep.now.Add(30 * time.Minute) // 70 min after the joins, 30 after the heartbeat

	tick := ep.ticks[0]
	ep.ticks = ep.ticks[1:]
	if tick.at.After(ep.now) {
		t.Fatalf("the lease tick is due at %v, after the clock's %v", tick.at, ep.now)
	}
	sentBefore := len(ep.sent)
	d.Handle(&wire.Packet{Type: wire.TTick, From: ep.addr, Payload: tick.tag})

	if _, ok := d.agents[silent]; ok || d.statEvictions.Load() != 1 {
		t.Fatalf("silent agent %d still a member (%d evictions)", silent, d.statEvictions.Load())
	}
	if _, ok := d.agents[live]; !ok || len(d.agents) != 1 {
		t.Fatalf("members after the sweep: %v, want just agent %d", d.agents, live)
	}
	var view *wire.View
	var err error
	for _, s := range ep.sent[sentBefore:] {
		if s.to == "agent-live" && s.pkt.Type == wire.TDirUpdate {
			if view, err = wire.DecodeView(s.pkt.Payload); err != nil {
				t.Fatal(err)
			}
		}
	}
	if view == nil || len(view.Agents) != 1 || view.Agents[0].ID != live {
		t.Fatalf("published view after the sweep: %+v, want one holding agent %d alone", view, live)
	}
	if len(ep.ticks) != 1 || !ep.ticks[0].at.After(ep.now) {
		t.Fatalf("the sweep re-armed %d ticks, want the next one", len(ep.ticks))
	}
}

// TestEmptyMembershipChangeOpensNoRound hands an idle coordinator a join
// from an address that is already a member (a copy of a join applied
// earlier) or a leave from an agent ID that is no member (an agent that
// left before its join reply). Neither changes the membership: the join is
// answered with the member's ID, and no epoch is spent and no migration
// round opened on either.
func TestEmptyMembershipChangeOpensNoRound(t *testing.T) {
	for _, tc := range []struct {
		name string
		pkt  *wire.Packet
	}{
		{"resent-join", &wire.Packet{Type: wire.TJoin, From: "agent-a", Req: 9,
			Payload: wire.AppendJoin(nil, &wire.Join{Addr: "agent-a"})}},
		{"unknown-leave", &wire.Packet{Type: wire.TLeave, From: "agent-c",
			Payload: wire.AppendLeave(nil, &wire.Leave{AgentID: 0})}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d, ep := fakeCoordinator(t, testCfg())
			id := fakeJoin(t, d, ep, "agent-a")
			fakeJoin(t, d, ep, "agent-b")
			epoch, members := d.epoch, len(d.agents)
			d.Handle(tc.pkt)
			if d.epoch != epoch || d.migration != nil || len(d.agents) != members {
				t.Fatalf("epoch %d -> %d, round open: %v, %d members -> %d",
					epoch, d.epoch, d.migration != nil, members, len(d.agents))
			}
			if tc.pkt.Type != wire.TJoin {
				return
			}
			reply := ep.lastTo("agent-a", wire.TJoinReply)
			if reply == nil || reply.Req != tc.pkt.Req {
				t.Fatal("the resent join got no reply")
			}
			if jr, err := wire.DecodeJoinReply(reply.Payload); err != nil || jr.AgentID != id {
				t.Fatalf("the resent join was answered %+v (%v), want ID %d", jr, err, id)
			}
		})
	}
}
