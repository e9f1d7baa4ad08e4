package directory

import (
	"fmt"
	"time"

	"elga/internal/events"
	"elga/internal/profile"
	"elga/internal/trace"
	"elga/internal/wire"
)

// Coordinator half of the cluster profiling plane. The coordinator mints
// capture IDs, fans TProfileReq out to agents (acked — a lost request
// would wedge the one-in-flight accounting), reassembles the chunks lossy
// reports carry back, and commits finished artifacts to the
// content-addressed store with a manifest entry naming the run span and
// the health verdict that triggered the capture. The auto-capture policy
// rides evaluateHealth: a first straggler/suspect verdict requests a
// profile matching the attributed cause, rate-limited per agent.

// profCaptureExpiry bounds how long a reassembly waits for its missing
// chunks (lossy transport: a dropped chunk costs the capture). Swept on
// the lease-sweep cadence.
const profCaptureExpiry = 2 * time.Minute

// profCapState is one in-flight capture awaiting chunk reassembly.
type profCapState struct {
	agentID uint64
	kind    uint8
	auto    bool
	// verdict/cause are the triggering health judgement (auto-capture) or
	// empty for operator-requested captures.
	verdict string
	cause   string
	traceHi uint64
	traceLo uint64
	chunks  [][]byte
	got     int
	started time.Time
}

// profAgentState rate-limits auto-captures for one agent.
type profAgentState struct {
	autoInflight int
	lastAuto     time.Time
}

// dirProf is the coordinator's profiling-plane state; touched only by the
// event loop (the store itself is internally locked for client reads).
type dirProf struct {
	cfg       profile.Config
	store     *profile.Store
	nextCapID uint64
	inflight  map[uint64]*profCapState
	perAgent  map[uint64]*profAgentState
}

// initProfile resolves the plane's config and opens the artifact store.
// The store always opens — a directory-less config falls back to the
// in-memory sink so operator-triggered captures work out of the box; the
// Enabled/AutoCapture switches gate only the automatic policy.
func (d *Directory) initProfile() error {
	d.prof.cfg = profile.Resolve(d.opts.Profile)
	d.prof.cfg.ApplyRates()
	store, err := profile.OpenStore(d.prof.cfg)
	if err != nil {
		return fmt.Errorf("directory: open profile store: %w", err)
	}
	d.prof.store = store
	d.prof.inflight = make(map[uint64]*profCapState)
	d.prof.perAgent = make(map[uint64]*profAgentState)
	return nil
}

// profAgentVitals returns (allocating) the rate-limit state for one agent.
func (d *Directory) profAgentVitals(id uint64) *profAgentState {
	s, ok := d.prof.perAgent[id]
	if !ok {
		s = &profAgentState{}
		d.prof.perAgent[id] = s
	}
	return s
}

// startCapture requests one profile of each kind from an agent and
// returns the minted capture IDs. The request inherits the active run's
// trace context so the artifact links into the same causal timeline as
// the run's spans.
func (d *Directory) startCapture(agentID uint64, kinds []uint8, steps uint32, seconds float64, verdict, cause string, auto bool) []uint64 {
	addr, ok := d.agents[agentID]
	if !ok {
		return nil
	}
	var ctx trace.SpanContext
	if d.run != nil {
		ctx = d.run.runSpan.Context()
	}
	ids := make([]uint64, 0, len(kinds))
	for _, kind := range kinds {
		d.prof.nextCapID++
		capID := d.prof.nextCapID
		req := wire.ProfileReq{
			CaptureID: capID, Kind: kind,
			Steps: steps, Seconds: seconds,
			TraceHi: ctx.TraceHi, TraceLo: ctx.TraceLo,
		}
		if _, err := d.ep.SendFrameAcked(addr,
			wire.AppendProfileReq(d.ep.NewFrame(wire.TProfileReq), &req)); err != nil {
			continue
		}
		d.prof.inflight[capID] = &profCapState{
			agentID: agentID, kind: kind, auto: auto,
			verdict: verdict, cause: cause,
			traceHi: ctx.TraceHi, traceLo: ctx.TraceLo,
			started: d.ep.Now(),
		}
		if auto {
			d.profAgentVitals(agentID).autoInflight++
		}
		d.statProfRequested.Add(1)
		ids = append(ids, capID)
	}
	return ids
}

// captureKindsFor maps a straggler's attributed cause to the profile
// kinds most likely to explain it: compute skew shows in CPU samples,
// inbox backlog in goroutine/block states, combine time in CPU plus lock
// contention, checkpoint overlap in heap pressure, heartbeat silence in
// whatever the goroutines are stuck on.
func captureKindsFor(cause string) []uint8 {
	switch cause {
	case CauseComputeSkew:
		return []uint8{profile.KindCPU}
	case CauseInboxBacklog:
		return []uint8{profile.KindGoroutine, profile.KindBlock}
	case CauseCombineTime:
		return []uint8{profile.KindCPU, profile.KindMutex}
	case CauseCheckpointOverlap:
		return []uint8{profile.KindHeap}
	case CauseHeartbeatSilence:
		return []uint8{profile.KindGoroutine}
	default:
		return []uint8{profile.KindCPU}
	}
}

// maybeAutoProfile applies the auto-capture policy to one health
// transition: first straggler/suspect verdict for an agent triggers a
// cause-matched capture, gated on the cooldown and one auto-capture
// in flight per agent.
func (d *Directory) maybeAutoProfile(now time.Time, a *wire.AgentHealth) {
	if !d.prof.cfg.Enabled || !d.prof.cfg.AutoCapture {
		return
	}
	if a.Status != wire.HealthStraggler && a.Status != wire.HealthSuspect {
		return
	}
	s := d.profAgentVitals(a.AgentID)
	if s.autoInflight > 0 {
		return
	}
	if !s.lastAuto.IsZero() && now.Sub(s.lastAuto) < d.prof.cfg.Cooldown {
		return
	}
	steps := uint32(d.prof.cfg.Steps)
	ids := d.startCapture(a.AgentID, captureKindsFor(a.Cause), steps,
		d.prof.cfg.Seconds, wire.HealthName(a.Status), a.Cause, true)
	if len(ids) > 0 {
		s.lastAuto = now
	}
}

// handleProfileChunk folds one chunk into its capture's reassembly and
// commits the artifact when the last chunk lands. Chunks for expired or
// unknown captures are dropped silently (lossy plane).
func (d *Directory) handleProfileChunk(body []byte) {
	ck, err := wire.DecodeProfileChunk(body)
	if err != nil {
		return
	}
	c, ok := d.prof.inflight[ck.CaptureID]
	if !ok || c.agentID != ck.AgentID {
		return
	}
	if ck.Err != "" {
		d.finishCapture(ck.CaptureID, c)
		d.statProfFailed.Add(1)
		d.event(events.Warn, events.KindProfile, trace.SpanContext{TraceHi: c.traceHi, TraceLo: c.traceLo},
			events.U("agent", c.agentID),
			events.S("kind", profile.KindName(c.kind)),
			events.S("error", ck.Err))
		return
	}
	if ck.Total == 0 || ck.Seq >= ck.Total {
		return
	}
	if c.chunks == nil {
		c.chunks = make([][]byte, ck.Total)
	}
	if int(ck.Total) != len(c.chunks) {
		return
	}
	if c.chunks[ck.Seq] == nil {
		// The payload aliases the pooled frame: copy before the packet is
		// released back to the pool.
		c.chunks[ck.Seq] = append([]byte(nil), ck.Data...)
		c.got++
	}
	if c.got < len(c.chunks) {
		return
	}
	d.finishCapture(ck.CaptureID, c)
	var data []byte
	for _, part := range c.chunks {
		data = append(data, part...)
	}
	art := wire.ProfileArtifact{
		ID: ck.CaptureID, AgentID: c.agentID, Kind: c.kind,
		RunID: ck.RunID, StepStart: ck.StepStart, StepEnd: ck.StepEnd,
		TraceHi: c.traceHi, TraceLo: c.traceLo,
		Verdict: c.verdict, Cause: c.cause,
		WallNanos: uint64(d.ep.Now().UnixNano()),
	}
	art, err = d.prof.store.Add(art, data)
	if err != nil {
		d.statProfFailed.Add(1)
		return
	}
	d.statProfCompleted.Add(1)
	d.event(events.Info, events.KindProfile, trace.SpanContext{TraceHi: c.traceHi, TraceLo: c.traceLo, RunID: ck.RunID, Step: ck.StepEnd},
		events.U("agent", c.agentID),
		events.S("kind", profile.KindName(c.kind)),
		events.S("verdict", c.verdict),
		events.S("cause", c.cause))
}

// finishCapture retires one in-flight capture and releases its agent's
// auto-capture slot.
func (d *Directory) finishCapture(capID uint64, c *profCapState) {
	delete(d.prof.inflight, capID)
	if c.auto {
		if s, ok := d.prof.perAgent[c.agentID]; ok && s.autoInflight > 0 {
			s.autoInflight--
		}
	}
}

// sweepProfiles expires reassemblies whose chunks never finished
// arriving (lossy transport, dead agent). Runs on the lease-sweep
// cadence.
func (d *Directory) sweepProfiles(now time.Time) {
	if d.prof.inflight == nil {
		return
	}
	for capID, c := range d.prof.inflight {
		if now.Sub(c.started) >= profCaptureExpiry {
			d.finishCapture(capID, c)
			d.statProfFailed.Add(1)
		}
	}
}

// profileAgentGone abandons an agent's in-flight captures when it leaves
// or is evicted; its chunks will never arrive.
func (d *Directory) profileAgentGone(id uint64) {
	if d.prof.inflight == nil {
		return
	}
	for capID, c := range d.prof.inflight {
		if c.agentID == id {
			d.finishCapture(capID, c)
			d.statProfFailed.Add(1)
		}
	}
	delete(d.prof.perAgent, id)
}

// handleProfileRequest answers the client-facing TProfile op: trigger a
// capture, list the store, or fetch one artifact's bytes.
func (d *Directory) handleProfileRequest(pkt *wire.Packet) {
	req, err := wire.DecodeProfileRequest(pkt.Payload)
	rep := &wire.ProfileReply{}
	switch {
	case err != nil:
		rep.Err = err.Error()
	case req.Op == wire.ProfileOpCapture:
		d.replyProfileCapture(req, rep)
	case req.Op == wire.ProfileOpList:
		rep.Artifacts = d.prof.store.List()
		rep.Pending = uint32(len(d.prof.inflight))
	case req.Op == wire.ProfileOpFetch:
		data, err := d.prof.store.Read(req.Segment)
		if err != nil {
			rep.Err = err.Error()
		} else {
			rep.Data = data
		}
	default:
		rep.Err = fmt.Sprintf("unknown profile op %d", req.Op)
	}
	hint := 64 + 128*len(rep.Artifacts) + 8*len(rep.Captures) + len(rep.Data)
	_ = d.ep.ReplyFrame(pkt, wire.AppendProfileReply(
		d.ep.NewFrameHint(wire.TProfileReply, hint), rep))
}

// replyProfileCapture fans an operator capture request out to its target
// agents (AgentID 0 = every live agent).
func (d *Directory) replyProfileCapture(req *wire.ProfileRequest, rep *wire.ProfileReply) {
	kinds := req.Kinds
	if len(kinds) == 0 {
		kinds = []uint8{profile.KindCPU}
	}
	for _, k := range kinds {
		if !profile.ValidKind(k) {
			rep.Err = fmt.Sprintf("unknown profile kind %d", k)
			return
		}
	}
	var targets []uint64
	if req.AgentID != 0 {
		if _, ok := d.agents[req.AgentID]; !ok {
			rep.Err = fmt.Sprintf("unknown agent %d", req.AgentID)
			return
		}
		targets = []uint64{req.AgentID}
	} else {
		for id := range d.agents {
			targets = append(targets, id)
		}
	}
	if len(targets) == 0 {
		rep.Err = "no agents in the view"
		return
	}
	for _, id := range targets {
		rep.Captures = append(rep.Captures, d.startCapture(id, kinds, req.Steps, req.Seconds, "", "", false)...)
	}
	rep.Pending = uint32(len(d.prof.inflight))
}
