package agent

import (
	"sync"
	"time"

	"elga/internal/profile"
	"elga/internal/wire"
)

// Agent half of the cluster profiling plane. The event loop owns the
// capture lifecycle (arm at the post-vote safe point, count supersteps,
// close the window); the actual profile serialization — CPU stop-and-
// flush, snapshot collection — runs on a detached goroutine so capture
// never blocks the loop. Finished captures land in a mutex-guarded done
// list that the next report drains into bounded chunks.
//
// Disarmed, the whole plane costs the superstep exactly one predicted
// branch (the armed flag in maybeProfileStep) and zero allocations.

// profChunkSize bounds one profile chunk, and so the report frame that
// carries it.
const profChunkSize = 256 << 10

// profWindowGrace closes dangling superstep windows when the run ends
// before the window does (checked on the tick cadence).
const profWindowGrace = 2 * time.Second

// profCapture is one in-flight capture on the event loop.
type profCapture struct {
	id   uint64
	kind uint8
	// stepsLeft counts compute supersteps until the window closes.
	stepsLeft int
	// cpu holds the live CPU window (nil for snapshot kinds, which
	// collect only at window close).
	cpu       *profile.CPUCapture
	runID     uint32
	stepStart uint32
	// steps is the requested window length; seconds the CPU fallback.
	steps   uint32
	seconds float64
	armedAt time.Time
}

// profResult is a finished capture handed back from the off-loop worker.
type profResult struct {
	id        uint64
	kind      uint8
	runID     uint32
	stepStart uint32
	stepEnd   uint32
	data      []byte
	err       string
}

// agentProf is the agent's profiling-plane state.
type agentProf struct {
	// armed mirrors pending/active being non-empty: the single hot-path
	// branch maybeProfileStep reads.
	armed   bool
	pending []*profCapture
	active  []*profCapture

	mu   sync.Mutex
	done []profResult
}

// initProfile arms the runtime sampling rates when asked. Capture
// requests are always served — the master switch gates the
// coordinator-side store and auto-capture policy, not the agent's ability
// to answer an operator.
func (a *Agent) initProfile() {
	a.opts.Profile.ApplyRates()
}

// pushProfResult hands a finished capture to the shipping cadence; safe
// from any goroutine.
func (a *Agent) pushProfResult(res profResult) {
	a.prof.mu.Lock()
	a.prof.done = append(a.prof.done, res)
	a.prof.mu.Unlock()
}

// handleProfileReq admits one capture request. Superstep-scoped requests
// park until the next post-vote safe point; everything else dispatches
// off-loop immediately.
func (a *Agent) handleProfileReq(pkt *wire.Packet) {
	req, err := wire.DecodeProfileReq(pkt.Payload)
	a.ep.Ack(pkt)
	if err != nil {
		return
	}
	if !profile.ValidKind(req.Kind) {
		a.pushProfResult(profResult{id: req.CaptureID, kind: req.Kind, err: "unknown profile kind"})
		return
	}
	seconds := req.Seconds
	if seconds <= 0 {
		seconds = profile.DefaultSeconds
	}
	c := &profCapture{
		id: req.CaptureID, kind: req.Kind,
		steps: req.Steps, seconds: seconds,
	}
	if a.run != nil && req.Steps > 0 {
		a.prof.pending = append(a.prof.pending, c)
		a.prof.armed = true
		return
	}
	a.dispatchImmediate(c)
}

// dispatchImmediate captures outside any superstep window: a wall-clock
// CPU window or a one-shot snapshot, entirely off-loop.
func (a *Agent) dispatchImmediate(c *profCapture) {
	go func() {
		res := profResult{id: c.id, kind: c.kind}
		var data []byte
		var err error
		if c.kind == profile.KindCPU {
			data, err = profile.CaptureCPU(time.Duration(c.seconds * float64(time.Second)))
		} else {
			data, err = profile.Snapshot(c.kind)
		}
		if err != nil {
			res.err = err.Error()
		} else {
			res.data = data
		}
		a.pushProfResult(res)
	}()
}

// maybeProfileStep rides maybeReady's post-vote compute tail: the barrier
// vote is already out, so arming/closing windows overlaps the barrier
// wait. Disarmed this is the plane's one hot-path branch.
func (a *Agent) maybeProfileStep() {
	if !a.prof.armed {
		return
	}
	a.profileStep()
}

// profileStep arms pending captures and advances open windows by one
// compute superstep, closing any whose window elapsed.
func (a *Agent) profileStep() {
	r := a.run
	if r == nil {
		return
	}
	if len(a.prof.pending) > 0 {
		for _, c := range a.prof.pending {
			c.runID = r.id
			// The vote for r.step just fired, so the window's samples
			// start at the next superstep.
			c.stepStart = r.step + 1
			c.stepsLeft = int(c.steps)
			c.armedAt = a.ep.Now()
			if c.kind == profile.KindCPU {
				cpu, err := profile.StartCPU()
				if err != nil {
					a.pushProfResult(profResult{id: c.id, kind: c.kind, runID: c.runID, err: err.Error()})
					continue
				}
				c.cpu = cpu
			}
			a.prof.active = append(a.prof.active, c)
		}
		a.prof.pending = a.prof.pending[:0]
	}
	kept := a.prof.active[:0]
	for _, c := range a.prof.active {
		c.stepsLeft--
		if c.stepsLeft > 0 {
			kept = append(kept, c)
			continue
		}
		a.closeProfileWindow(c, r.step)
	}
	a.prof.active = kept
	a.prof.armed = len(a.prof.pending) > 0 || len(a.prof.active) > 0
}

// closeProfileWindow finishes one superstep-scoped capture: the CPU
// flush or snapshot collection runs off-loop.
func (a *Agent) closeProfileWindow(c *profCapture, stepEnd uint32) {
	cpu := c.cpu
	c.cpu = nil
	go func() {
		res := profResult{
			id: c.id, kind: c.kind,
			runID: c.runID, stepStart: c.stepStart, stepEnd: stepEnd,
		}
		if c.kind == profile.KindCPU {
			res.data = cpu.Stop()
		} else {
			data, err := profile.Snapshot(c.kind)
			if err != nil {
				res.err = err.Error()
			} else {
				res.data = data
			}
		}
		a.pushProfResult(res)
	}()
}

// closeOrphanedProfiles rides the report cadence: it closes superstep
// windows orphaned by a run that ended before the window did.
func (a *Agent) closeOrphanedProfiles() {
	if a.prof.armed && a.run == nil {
		// The run ended under an open window: close everything at its
		// last observed span rather than waiting for steps that will
		// never come.
		now := a.ep.Now()
		kept := a.prof.active[:0]
		for _, c := range a.prof.active {
			if now.Sub(c.armedAt) < profWindowGrace {
				kept = append(kept, c)
				continue
			}
			a.closeProfileWindow(c, c.stepStart+c.steps-1)
		}
		a.prof.active = kept
		// Pending captures that never armed fall back to immediate mode.
		if len(a.prof.active) == 0 && len(a.prof.pending) > 0 {
			for _, c := range a.prof.pending {
				a.dispatchImmediate(c)
			}
			a.prof.pending = a.prof.pending[:0]
		}
		a.prof.armed = len(a.prof.pending) > 0 || len(a.prof.active) > 0
	}
}

// profileChunks drains finished captures into bounded chunks for the next
// report. A dropped chunk costs the capture (reassembly times out at the
// coordinator), never correctness.
func (a *Agent) profileChunks() []wire.ProfileChunk {
	a.prof.mu.Lock()
	done := a.prof.done
	a.prof.done = nil
	a.prof.mu.Unlock()
	var chunks []wire.ProfileChunk
	for i := range done {
		res := &done[i]
		total := max(1, uint32((len(res.data)+profChunkSize-1)/profChunkSize))
		for seq := uint32(0); seq < total; seq++ {
			lo := int(seq) * profChunkSize
			hi := min(lo+profChunkSize, len(res.data))
			chunks = append(chunks, wire.ProfileChunk{
				CaptureID: res.id, AgentID: a.id, Kind: res.kind,
				Seq: seq, Total: total,
				RunID: res.runID, StepStart: res.stepStart, StepEnd: res.stepEnd,
				Err: res.err, Data: res.data[lo:hi],
			})
		}
	}
	return chunks
}

// closeProfile releases any live CPU window on exit so the process-wide
// profiler slot is not leaked. Unshipped results are dropped — the
// coordinator's reassembly expiry accounts for them.
func (a *Agent) closeProfile() {
	for _, c := range a.prof.active {
		if c.cpu != nil {
			c.cpu.Stop()
			c.cpu = nil
		}
	}
	a.prof.active = a.prof.active[:0]
	a.prof.pending = a.prof.pending[:0]
	a.prof.armed = false
}
