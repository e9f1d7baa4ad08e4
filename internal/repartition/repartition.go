// Package repartition implements the coordinator-side planner for
// adaptive locality-aware vertex placement. Agents observe their own
// scatter traffic and report top-K "chatty vertex" digests (a wire
// report section) on the report cadence; the planner accumulates them and,
// once per round, emits a bounded list of placement moves scored with an
// xDGP-style gain function: moving vertex v from its owner A to remote
// agent B gains (messages v sent to B) − (messages v sent to A). Moves
// are capacity-balanced against per-agent vertex counts and damped with
// hysteresis (minimum gain + per-vertex cooldown) so placement cannot
// oscillate between two agents that exchange similar volumes.
//
// The planner is pure bookkeeping: it never talks to the network. The
// directory feeds it digests, asks for a plan at a superstep boundary,
// and turns accepted moves into view-override entries that execute
// through the ordinary migration path.
package repartition

import (
	"sort"

	"elga/internal/consistent"
	"elga/internal/graph"
	"elga/internal/wire"
)

// Config tunes the planner.
type Config struct {
	// TopK bounds the digest size each agent reports per window.
	TopK int
	// MaxMoves bounds how many vertices one planning round may relocate.
	MaxMoves int
	// MinGain is the minimum (remote − local) message advantage a move
	// must show; anything below is noise and gets ignored.
	MinGain uint64
	// Cooldown freezes a moved vertex for this many planning rounds so a
	// borderline vertex cannot ping-pong between two agents.
	Cooldown int
	// Slack is the allowed per-agent vertex-count overshoot relative to
	// the mean (0.25 = any agent may hold up to 125% of the mean before
	// the planner refuses to route more vertices at it).
	Slack float64
}

// DefaultConfig returns the planner defaults used by the directory.
func DefaultConfig() Config {
	return Config{TopK: 64, MaxMoves: 64, MinGain: 4, Cooldown: 3, Slack: 0.25}
}

// withDefaults fills zero fields so a partially set Config still plans.
func (c Config) withDefaults() Config {
	d := DefaultConfig()
	if c.TopK <= 0 {
		c.TopK = d.TopK
	}
	if c.MaxMoves <= 0 {
		c.MaxMoves = d.MaxMoves
	}
	if c.Cooldown <= 0 {
		c.Cooldown = d.Cooldown
	}
	if c.Slack <= 0 {
		c.Slack = d.Slack
	}
	return c
}

// Move relocates one vertex from its current owner to a better peer.
type Move struct {
	Vertex graph.VertexID
	From   consistent.AgentID
	To     consistent.AgentID
	// Gain is the message-count advantage observed in the last window.
	Gain uint64
}

// candidate is the latest digest evidence for one vertex. The reporting
// agent is the vertex's current owner (it scattered from there).
type candidate struct {
	owner    consistent.AgentID
	local    uint64
	peer     consistent.AgentID
	peerMsgs uint64
}

// Planner accumulates digests and emits bounded move plans. Single
// threaded: the directory event loop owns it.
type Planner struct {
	cfg   Config
	round int
	// cand holds the freshest evidence per vertex; consumed by Plan.
	cand map[graph.VertexID]candidate
	// loads tracks each agent's reported vertex count for balancing.
	loads map[consistent.AgentID]uint64
	// lastMoved maps a vertex to the round it last moved (cooldown).
	lastMoved map[graph.VertexID]int
	// reporters is the set of agents heard from since the last Plan; the
	// caller gates planning on full coverage so one early digest cannot
	// trigger a lopsided round.
	reporters map[consistent.AgentID]bool
}

// New creates a planner.
func New(cfg Config) *Planner {
	return &Planner{
		cfg:       cfg.withDefaults(),
		cand:      make(map[graph.VertexID]candidate),
		loads:     make(map[consistent.AgentID]uint64),
		lastMoved: make(map[graph.VertexID]int),
		reporters: make(map[consistent.AgentID]bool),
	}
}

// Config returns the effective (default-filled) configuration.
func (p *Planner) Config() Config { return p.cfg }

// Pending returns how many candidate vertices the planner holds.
func (p *Planner) Pending() int { return len(p.cand) }

// Reporters returns how many distinct agents have sent a digest since
// the last Plan.
func (p *Planner) Reporters() int { return len(p.reporters) }

// Round returns the number of completed planning rounds.
func (p *Planner) Round() int { return p.round }

// Observe folds one agent digest into the candidate pool. The digest
// sender is taken as the current owner of every vertex it reports; a
// fresher report for the same vertex replaces the older one.
func (p *Planner) Observe(d *wire.VertexDigest) {
	owner := consistent.AgentID(d.AgentID)
	p.loads[owner] = d.Vertices
	p.reporters[owner] = true
	for _, e := range d.Entries {
		if consistent.AgentID(e.Peer) == owner {
			continue // self-referential entry carries no move signal
		}
		p.cand[e.Vertex] = candidate{
			owner:    owner,
			local:    e.Local,
			peer:     consistent.AgentID(e.Peer),
			peerMsgs: e.PeerMsgs,
		}
	}
}

// Forget drops accumulated evidence about an agent that left the cluster:
// its load entry and every candidate that names it as owner or target.
// Called on eviction so a plan never routes vertices at a corpse.
func (p *Planner) Forget(id consistent.AgentID) {
	delete(p.loads, id)
	delete(p.reporters, id)
	for v, c := range p.cand {
		if c.owner == id || c.peer == id {
			delete(p.cand, v)
		}
	}
}

// Plan consumes the candidate pool and returns at most MaxMoves moves,
// highest gain first. members is the live agent set; split reports
// whether a vertex is replicated (split vertices keep ring placement and
// are never moved — overrides do not apply to them). Plan always clears
// the pool and advances the round counter, even when it returns nothing.
func (p *Planner) Plan(members []consistent.AgentID, split func(graph.VertexID) bool) []Move {
	defer func() {
		clear(p.cand)
		clear(p.reporters)
		p.round++
	}()
	if len(members) < 2 || len(p.cand) == 0 {
		return nil
	}
	live := make(map[consistent.AgentID]bool, len(members))
	var total uint64
	for _, m := range members {
		live[m] = true
		total += p.loads[m]
	}
	// Projected per-agent vertex counts as moves are accepted; the cap
	// keeps the plan from stacking every chatty vertex on one agent.
	proj := make(map[consistent.AgentID]uint64, len(members))
	for _, m := range members {
		proj[m] = p.loads[m]
	}
	mean := float64(total) / float64(len(members))
	cap := uint64(mean*(1+p.cfg.Slack)) + 1

	type scored struct {
		v    graph.VertexID
		c    candidate
		gain uint64
	}
	cands := make([]scored, 0, len(p.cand))
	for v, c := range p.cand {
		if c.peerMsgs <= c.local {
			continue
		}
		gain := c.peerMsgs - c.local
		if gain < p.cfg.MinGain {
			continue
		}
		if !live[c.owner] || !live[c.peer] {
			continue
		}
		if last, ok := p.lastMoved[v]; ok && p.round-last < p.cfg.Cooldown {
			continue
		}
		if split != nil && split(v) {
			continue
		}
		cands = append(cands, scored{v: v, c: c, gain: gain})
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].gain != cands[j].gain {
			return cands[i].gain > cands[j].gain
		}
		return cands[i].v < cands[j].v // deterministic tie-break
	})

	moves := make([]Move, 0, min(len(cands), p.cfg.MaxMoves))
	for _, s := range cands {
		if len(moves) >= p.cfg.MaxMoves {
			break
		}
		if proj[s.c.peer]+1 > cap {
			continue // destination full; balance beats locality
		}
		moves = append(moves, Move{Vertex: s.v, From: s.c.owner, To: s.c.peer, Gain: s.gain})
		proj[s.c.peer]++
		if proj[s.c.owner] > 0 {
			proj[s.c.owner]--
		}
		p.lastMoved[s.v] = p.round
	}
	return moves
}
