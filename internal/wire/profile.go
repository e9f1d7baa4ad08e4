package wire

import "fmt"

// Profiling frames. The coordinator drives cluster profiling with three
// exchanges:
//
//   - ProfileReq (TProfileReq, acked) asks one agent for one profile of
//     one kind, optionally scoped to a superstep window: the capture arms
//     at the agent's next post-vote safe point and stops Steps supersteps
//     later, so samples align with compute/combine phases instead of
//     smearing across barrier waits.
//   - ProfileChunk (the SecProfileChunk report section, lossy) streams the
//     captured bytes back in bounded chunks; the final reassembly is
//     committed into the coordinator's content-addressed profile store.
//   - ProfileRequest/ProfileReply (TProfile/TProfileReply, REQ/REP) is
//     the client boundary: trigger captures, list stored artifacts, or
//     fetch one artifact's bytes.

// Profile request ops (ProfileRequest.Op).
const (
	// ProfileOpCapture triggers captures on the selected agents.
	ProfileOpCapture uint8 = 1
	// ProfileOpList returns the store's artifact manifest.
	ProfileOpList uint8 = 2
	// ProfileOpFetch returns one stored artifact's payload by segment name.
	ProfileOpFetch uint8 = 3
)

// ProfileReq is the payload of TProfileReq: one capture of one kind on
// one agent. CaptureID is coordinator-assigned and names the artifact
// through chunking and reassembly.
type ProfileReq struct {
	CaptureID uint64
	// Kind is the profile kind (profile.Kind*; raw here to keep wire free
	// of higher-layer imports, mirroring AgentHealth.Status).
	Kind uint8
	// Steps scopes the capture to a superstep window: armed at the next
	// post-vote safe point, stopped Steps compute supersteps later. When 0
	// (or no run is active at the agent) the capture falls back to an
	// immediate snapshot, or a Seconds-long wall window for CPU.
	Steps uint32
	// Seconds is the CPU wall-clock fallback window.
	Seconds float64
	// TraceHi/TraceLo correlate the capture with the trace timeline.
	TraceHi uint64
	TraceLo uint64
}

// AppendProfileReq appends a TProfileReq payload to dst.
func AppendProfileReq(dst []byte, p *ProfileReq) []byte {
	w := Writer{buf: dst}
	w.U64(p.CaptureID)
	w.U8(p.Kind)
	w.U32(p.Steps)
	w.F64(p.Seconds)
	w.U64(p.TraceHi)
	w.U64(p.TraceLo)
	return w.buf
}

// DecodeProfileReq parses a TProfileReq payload.
func DecodeProfileReq(data []byte) (*ProfileReq, error) {
	r := NewReader(data)
	p := &ProfileReq{
		CaptureID: r.U64(),
		Kind:      r.U8(),
		Steps:     r.U32(),
		Seconds:   r.F64(),
		TraceHi:   r.U64(),
		TraceLo:   r.U64(),
	}
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("decode profile req: %w", err)
	}
	return p, nil
}

// ProfileChunk is the SecProfileChunk report section: one bounded piece of a
// captured profile. Err (with Seq 0, Total 1, empty Data) reports a
// capture that failed at the agent.
type ProfileChunk struct {
	CaptureID uint64
	AgentID   uint64
	Kind      uint8
	// Seq/Total sequence the chunks of one capture.
	Seq   uint32
	Total uint32
	// RunID and StepStart/StepEnd record the superstep span the samples
	// actually cover (zero when the capture ran outside a run).
	RunID     uint32
	StepStart uint32
	StepEnd   uint32
	Err       string
	Data      []byte
}

// AppendProfileChunk appends a profile chunk to dst.
func AppendProfileChunk(dst []byte, c *ProfileChunk) []byte {
	w := Writer{buf: dst}
	w.U64(c.CaptureID)
	w.U64(c.AgentID)
	w.U8(c.Kind)
	w.U32(c.Seq)
	w.U32(c.Total)
	w.U32(c.RunID)
	w.U32(c.StepStart)
	w.U32(c.StepEnd)
	w.Str(c.Err)
	w.Blob(c.Data)
	return w.buf
}

// DecodeProfileChunk parses a profile chunk. Data aliases the
// frame; callers that retain it past the packet's release must copy.
func DecodeProfileChunk(data []byte) (*ProfileChunk, error) {
	r := NewReader(data)
	c := &ProfileChunk{
		CaptureID: r.U64(),
		AgentID:   r.U64(),
		Kind:      r.U8(),
		Seq:       r.U32(),
		Total:     r.U32(),
		RunID:     r.U32(),
		StepStart: r.U32(),
		StepEnd:   r.U32(),
		Err:       r.Str(),
		Data:      r.Blob(),
	}
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("decode profile chunk: %w", err)
	}
	return c, nil
}

// ProfileArtifact describes one stored profile: where it lives in the
// content-addressed store and the coordinates that make it diagnosable —
// run ID, superstep span, trace ID, and the health verdict/cause that
// triggered an auto-capture (empty for operator-requested profiles).
type ProfileArtifact struct {
	ID        uint64
	AgentID   uint64
	Kind      uint8
	Segment   string
	Length    uint64
	RunID     uint32
	StepStart uint32
	StepEnd   uint32
	TraceHi   uint64
	TraceLo   uint64
	Verdict   string
	Cause     string
	WallNanos uint64
}

func appendProfileArtifact(w *Writer, a *ProfileArtifact) {
	w.U64(a.ID)
	w.U64(a.AgentID)
	w.U8(a.Kind)
	w.Str(a.Segment)
	w.U64(a.Length)
	w.U32(a.RunID)
	w.U32(a.StepStart)
	w.U32(a.StepEnd)
	w.U64(a.TraceHi)
	w.U64(a.TraceLo)
	w.Str(a.Verdict)
	w.Str(a.Cause)
	w.U64(a.WallNanos)
}

func readProfileArtifact(r *Reader) ProfileArtifact {
	return ProfileArtifact{
		ID:        r.U64(),
		AgentID:   r.U64(),
		Kind:      r.U8(),
		Segment:   r.Str(),
		Length:    r.U64(),
		RunID:     r.U32(),
		StepStart: r.U32(),
		StepEnd:   r.U32(),
		TraceHi:   r.U64(),
		TraceLo:   r.U64(),
		Verdict:   r.Str(),
		Cause:     r.Str(),
		WallNanos: r.U64(),
	}
}

// AppendProfileArtifacts appends an artifact list payload to dst — the
// profile store's manifest root and the list-reply body share this shape.
func AppendProfileArtifacts(dst []byte, arts []ProfileArtifact) []byte {
	w := Writer{buf: dst}
	w.U32(uint32(len(arts)))
	for i := range arts {
		appendProfileArtifact(&w, &arts[i])
	}
	return w.buf
}

// DecodeProfileArtifacts parses an artifact list payload.
func DecodeProfileArtifacts(data []byte) ([]ProfileArtifact, error) {
	r := NewReader(data)
	n := int(r.U32())
	if r.Err() != nil || n > 1<<20 {
		return nil, fmt.Errorf("decode profile artifacts: %w", ErrBadPacket)
	}
	out := make([]ProfileArtifact, 0, capHint(n))
	for i := 0; i < n && r.Err() == nil; i++ {
		out = append(out, readProfileArtifact(r))
	}
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("decode profile artifacts: %w", err)
	}
	return out, nil
}

// ProfileRequest is the payload of TProfile (client boundary).
type ProfileRequest struct {
	Op uint8
	// AgentID selects one agent for ProfileOpCapture; 0 selects all.
	AgentID uint64
	// Kinds are the profile kinds to capture (capture op).
	Kinds []uint8
	// Steps/Seconds scope the capture (see ProfileReq).
	Steps   uint32
	Seconds float64
	// Segment names the artifact to fetch (fetch op).
	Segment string
}

// AppendProfileRequest appends a TProfile payload to dst.
func AppendProfileRequest(dst []byte, p *ProfileRequest) []byte {
	w := Writer{buf: dst}
	w.U8(p.Op)
	w.U64(p.AgentID)
	w.U8(uint8(len(p.Kinds)))
	for _, k := range p.Kinds {
		w.U8(k)
	}
	w.U32(p.Steps)
	w.F64(p.Seconds)
	w.Str(p.Segment)
	return w.buf
}

// DecodeProfileRequest parses a TProfile payload.
func DecodeProfileRequest(data []byte) (*ProfileRequest, error) {
	r := NewReader(data)
	p := &ProfileRequest{Op: r.U8(), AgentID: r.U64()}
	n := int(r.U8())
	for i := 0; i < n && r.Err() == nil; i++ {
		p.Kinds = append(p.Kinds, r.U8())
	}
	p.Steps = r.U32()
	p.Seconds = r.F64()
	p.Segment = r.Str()
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("decode profile request: %w", err)
	}
	return p, nil
}

// ProfileReply is the payload of TProfileReply. Err reports request
// failure; the other fields are populated per op — Captures for capture
// (the assigned capture IDs, completion is asynchronous), Artifacts and
// Pending for list, Data for fetch.
type ProfileReply struct {
	Err       string
	Captures  []uint64
	Pending   uint32
	Artifacts []ProfileArtifact
	Data      []byte
}

// AppendProfileReply appends a TProfileReply payload to dst.
func AppendProfileReply(dst []byte, p *ProfileReply) []byte {
	w := Writer{buf: dst}
	w.Str(p.Err)
	w.U32(uint32(len(p.Captures)))
	for _, id := range p.Captures {
		w.U64(id)
	}
	w.U32(p.Pending)
	w.U32(uint32(len(p.Artifacts)))
	for i := range p.Artifacts {
		appendProfileArtifact(&w, &p.Artifacts[i])
	}
	w.Blob(p.Data)
	return w.buf
}

// DecodeProfileReply parses a TProfileReply payload.
func DecodeProfileReply(data []byte) (*ProfileReply, error) {
	r := NewReader(data)
	p := &ProfileReply{Err: r.Str()}
	nc := int(r.U32())
	if r.Err() != nil || nc > 1<<20 {
		return nil, fmt.Errorf("decode profile reply: %w", ErrBadPacket)
	}
	for i := 0; i < nc && r.Err() == nil; i++ {
		p.Captures = append(p.Captures, r.U64())
	}
	p.Pending = r.U32()
	na := int(r.U32())
	if r.Err() != nil || na > 1<<20 {
		return nil, fmt.Errorf("decode profile reply: %w", ErrBadPacket)
	}
	p.Artifacts = make([]ProfileArtifact, 0, capHint(na))
	for i := 0; i < na && r.Err() == nil; i++ {
		p.Artifacts = append(p.Artifacts, readProfileArtifact(r))
	}
	p.Data = r.Blob()
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("decode profile reply: %w", err)
	}
	return p, nil
}
