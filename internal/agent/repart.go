package agent

import (
	"sort"

	"elga/internal/consistent"
	"elga/internal/graph"
	"elga/internal/wire"
)

// Repartition accounting: when enabled, the agent attributes every
// scattered message to the vertex that sent it and the agent that
// received it, and periodically reports its top-K "chatty vertices" to
// the coordinator's planner as a lossy report section. The window map is
// cleared in place after each digest (clear keeps the buckets), so
// steady-state accounting performs only map updates on warm keys — the
// superstep's 3 allocs/op ceiling holds with repartitioning on, and with
// it off the hot path pays a single branch.

// digestTopK bounds the digest size: only the K highest-gain vertices
// are worth the coordinator's attention per window. 256 entries is 8 KiB
// on the wire — small next to a sketch broadcast, large enough that one
// round can make visible progress on a community-structured graph.
const digestTopK = 256

// vertexPeerKey attributes one window counter: messages vertex v
// scattered to agent peer (peer == self records local delivery).
type vertexPeerKey struct {
	v    graph.VertexID
	peer consistent.AgentID
}

// commAccounting is the agent's scatter-traffic ledger.
type commAccounting struct {
	enabled bool
	// window counts (vertex, destination agent) message volume since the
	// last digest; cleared in place after each report.
	window map[vertexPeerKey]uint64
	// best is digest-build scratch: per-vertex busiest remote peer.
	best map[graph.VertexID]wire.DigestEntry
	// entries is digest-build scratch for the sorted candidate list.
	entries []wire.DigestEntry
}

// account records n messages vertex v scattered to agent peer (itself for
// local delivery). It counts logical messages — one per traversed edge, as
// the planner's cut model wants — whatever the combiner later folds them
// into; remote bytes are counted where frames are encoded (msgBatcher.send).
func (a *Agent) account(v graph.VertexID, peer consistent.AgentID, n uint64) {
	a.comm.window[vertexPeerKey{v: v, peer: peer}] += n
	if peer == consistent.AgentID(a.id) {
		a.localMsgs.Add(n)
	} else {
		a.remoteMsgs.Add(n)
	}
}

// accountRuns records a shard's buffer for one destination. A scatter call
// appends its messages contiguously, all with the scattering vertex as Via,
// so one ledger update covers each run of equal Via.
func (a *Agent) accountRuns(msgs []wire.VertexMsg, peer consistent.AgentID) {
	for i := 0; i < len(msgs); {
		j := i + 1
		for j < len(msgs) && msgs[j].Via == msgs[i].Via {
			j++
		}
		a.account(msgs[i].Via, peer, uint64(j-i))
		i = j
	}
}

// initComm arms the accounting maps when repartitioning is enabled.
func (a *Agent) initComm() {
	if !a.opts.Repartition {
		return
	}
	a.comm.enabled = true
	a.comm.window = make(map[vertexPeerKey]uint64)
	a.comm.best = make(map[graph.VertexID]wire.DigestEntry)
}

// appendDigest appends the window's top-K chatty vertices to the report f
// and resets the window, every fourth heartbeat tick and at run end. A
// dropped digest delays a planning round, nothing else. A digest with no
// entries is still sent: the header carries the agent's vertex load and
// marks it as a reporter, which the planner requires from every live
// agent before it will plan a round.
func (a *Agent) appendDigest(f []byte) []byte {
	if !a.comm.enabled || a.leaving {
		return f
	}
	self := consistent.AgentID(a.id)
	// Pass 1: per vertex, find the busiest remote destination.
	for k, n := range a.comm.window {
		if k.peer == self {
			continue
		}
		e := a.comm.best[k.v]
		if n > e.PeerMsgs {
			e.Vertex = k.v
			e.Peer = uint64(k.peer)
			e.PeerMsgs = n
			a.comm.best[k.v] = e
		}
	}
	// Pass 2: attach local volume, keep only net-positive candidates.
	a.comm.entries = a.comm.entries[:0]
	for v, e := range a.comm.best {
		e.Local = a.comm.window[vertexPeerKey{v: v, peer: self}]
		if e.PeerMsgs > e.Local {
			a.comm.entries = append(a.comm.entries, e)
		}
	}
	clear(a.comm.best)
	clear(a.comm.window)
	sort.Slice(a.comm.entries, func(i, j int) bool {
		gi := a.comm.entries[i].PeerMsgs - a.comm.entries[i].Local
		gj := a.comm.entries[j].PeerMsgs - a.comm.entries[j].Local
		if gi != gj {
			return gi > gj
		}
		return a.comm.entries[i].Vertex < a.comm.entries[j].Vertex
	})
	ents := a.comm.entries
	if len(ents) > digestTopK {
		ents = ents[:digestTopK]
	}
	d := wire.VertexDigest{
		AgentID:  a.id,
		Epoch:    a.router.Epoch(),
		Vertices: uint64(a.store.NumVertices()),
		Entries:  ents,
	}
	return wire.AppendSection(f, wire.SecDigest, func(b []byte) []byte { return wire.AppendVertexDigest(b, &d) })
}

// CommStats returns the cumulative scatter-traffic split: logical messages
// delivered locally and sent to peers, and the bytes of the TVertexMsgs
// frames actually encoded for peers (after combining). Race-safe for tests
// and metrics.
func (a *Agent) CommStats() (local, remote, remoteBytes uint64) {
	return a.localMsgs.Load(), a.remoteMsgs.Load(), a.remoteBytes.Load()
}
