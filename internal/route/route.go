// Package route implements the Participant-side lookup of Figure 3: every
// Participant combines the latest directory view (membership + sketch)
// with the cluster configuration to resolve which agent owns any edge or
// vertex, in O(log P) per lookup with O(P + d·w) state.
package route

import (
	"fmt"
	"sync"

	"elga/internal/config"
	"elga/internal/consistent"
	"elga/internal/graph"
	"elga/internal/sketch"
	"elga/internal/wire"
)

// routeShards is the lookup-cache shard count; a power of two so the
// shard index is a shift of a mixed vertex ID.
const routeShards = 64

// vertexRoute is the memoized outcome of the two-level lookup of Figure 3
// for one vertex under one view epoch: its replica count k (sketch
// estimate pushed through the replication policy, capped by the ring
// size) and its replica set (index 0 is the master). Both are pure
// functions of (epoch, vertex), so an entry is immutable once published
// and stays valid until the next view installs.
type vertexRoute struct {
	k   int
	set []consistent.AgentID
}

type routeShard struct {
	mu sync.RWMutex
	m  map[graph.VertexID]*vertexRoute
}

// lookupCache memoizes vertexRoute entries for the installed view. Update
// either swaps every shard map wholesale (membership or overrides changed)
// or drops exactly the entries whose replica count moved (only the sketch
// changed), so a stale entry can never survive a view install. Shards
// bound lock contention when an agent's compute-phase worker pool resolves
// ownership concurrently; all other Router users are single-threaded and
// only pay an uncontended lock.
type lookupCache struct {
	shards [routeShards]routeShard
}

func (c *lookupCache) invalidate() {
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		sh.m = make(map[graph.VertexID]*vertexRoute)
		sh.mu.Unlock()
	}
}

func shardOf(v graph.VertexID) uint64 {
	// Fibonacci multiply-shift so consecutive vertex IDs spread across
	// shards; the top bits select one of the 64 shards.
	return (uint64(v) * 0x9e3779b97f4a7c15) >> 58
}

// Router resolves edge and vertex ownership under one directory view. A
// Router is mutated only by its owning entity's event loop (Update);
// lookups are safe to issue concurrently from that entity's intra-phase
// worker pool, because the ring, sketch, and address table are immutable
// between Updates and the lookup cache is internally locked.
type Router struct {
	cfg   config.Config
	epoch uint64
	batch uint64
	n     uint64
	ring  *consistent.Ring
	sk    *sketch.Sketch
	addrs map[uint64]string
	// overrides is the repartitioner's placement table layered over the
	// ring, swapped wholesale on every view Update (epoch-versioned like
	// the ring and sketch). An override wins only for unsplit vertices
	// whose target is a ring member; anything else falls back to pure
	// consistent hashing, which is what rebases overrides onto survivors
	// when their target agent dies.
	overrides map[graph.VertexID]consistent.AgentID
	cache     lookupCache
	// rerouted and sketchOnly describe the last Update (see Rerouted).
	rerouted   []graph.VertexID
	sketchOnly bool
}

// New creates a Router with an empty view.
func New(cfg config.Config) *Router {
	r := &Router{
		cfg:   cfg,
		ring:  consistent.New(nil, consistent.Options{Virtual: cfg.Virtual, Hash: cfg.Hash}),
		sk:    cfg.NewSketch(),
		addrs: map[uint64]string{},
	}
	r.cache.invalidate()
	return r
}

// replicas is v's replica count under the installed sketch and ring.
func (r *Router) replicas(v graph.VertexID) int {
	k := r.cfg.Replicas(r.sk.Estimate(uint64(v)))
	if n := r.ring.Size(); k > n && n > 0 {
		k = n
	}
	return k
}

// dropRerouted removes every cache entry whose replica count no longer
// matches the installed sketch and records its vertex in r.rerouted.
func (r *Router) dropRerouted() {
	for i := range r.cache.shards {
		sh := &r.cache.shards[i]
		sh.mu.Lock()
		for v, rt := range sh.m {
			if r.replicas(v) != rt.k {
				delete(sh.m, v)
				r.rerouted = append(r.rerouted, v)
			}
		}
		sh.mu.Unlock()
	}
}

// computeRoute resolves v's routing entry directly from the sketch and
// ring, bypassing the cache. It is the cache-fill path and the reference
// the cache is tested against.
func (r *Router) computeRoute(v graph.VertexID) *vertexRoute {
	k := r.replicas(v)
	if k <= 1 {
		if ov, ok := r.overrides[v]; ok && r.ring.Contains(ov) {
			return &vertexRoute{k: k, set: []consistent.AgentID{ov}}
		}
	}
	return &vertexRoute{k: k, set: r.ring.ReplicaSet(uint64(v), k)}
}

// routeOf returns v's memoized routing entry, filling the cache on miss.
func (r *Router) routeOf(v graph.VertexID) *vertexRoute {
	sh := &r.cache.shards[shardOf(v)]
	sh.mu.RLock()
	rt := sh.m[v]
	sh.mu.RUnlock()
	if rt != nil {
		return rt
	}
	rt = r.computeRoute(v)
	sh.mu.Lock()
	if prev, ok := sh.m[v]; ok {
		rt = prev // another worker published first; keep its entry
	} else {
		sh.m[v] = rt
	}
	sh.mu.Unlock()
	return rt
}

// Update installs a directory view. Stale views (epoch older than current)
// are ignored and reported false. A view with the installed membership and
// overrides can differ only in its sketch, which feeds nothing but replica
// counts: the ring stays, and the cache keeps every entry whose count is
// unchanged (Rerouted lists the rest). Anything else rebuilds the ring and
// drops the whole cache.
func (r *Router) Update(v *wire.View) (bool, error) {
	if v.Epoch < r.epoch {
		return false, nil
	}
	// The sketch loads in place, first: malformed bytes error out before
	// anything is touched. An absent sketch is an empty one.
	crossed := true
	if len(v.Sketch) > 0 {
		var err error
		if crossed, err = r.sk.LoadEncoded(v.Sketch, r.cfg.Replicas); err != nil {
			return false, fmt.Errorf("route: view sketch: %w", err)
		}
	} else {
		r.sk.Reset()
	}
	r.epoch = v.Epoch
	r.batch = v.BatchID
	r.n = v.N
	r.rerouted = r.rerouted[:0]
	if r.sketchOnly = r.sameTable(v); r.sketchOnly {
		// No cell changed replica bucket means no vertex changed count.
		if crossed {
			r.dropRerouted()
		}
		return true, nil
	}
	members := make([]consistent.AgentID, 0, len(v.Agents))
	addrs := make(map[uint64]string, len(v.Agents))
	for _, a := range v.Agents {
		members = append(members, consistent.AgentID(a.ID))
		addrs[a.ID] = a.Addr
	}
	var overrides map[graph.VertexID]consistent.AgentID
	if len(v.Overrides) > 0 {
		overrides = make(map[graph.VertexID]consistent.AgentID, len(v.Overrides))
		for _, o := range v.Overrides {
			overrides[o.Vertex] = consistent.AgentID(o.AgentID)
		}
	}
	r.ring = consistent.New(members, consistent.Options{Virtual: r.cfg.Virtual, Hash: r.cfg.Hash})
	r.addrs = addrs
	r.overrides = overrides
	// Wholesale invalidation: every cached answer was a function of the
	// previous ring and override table.
	r.cache.invalidate()
	return true, nil
}

// sameTable reports whether v carries exactly the installed membership
// (IDs and addresses) and placement overrides.
func (r *Router) sameTable(v *wire.View) bool {
	if len(v.Agents) != len(r.addrs) || len(v.Overrides) != len(r.overrides) {
		return false
	}
	for _, a := range v.Agents {
		if addr, ok := r.addrs[a.ID]; !ok || addr != a.Addr {
			return false
		}
	}
	for _, o := range v.Overrides {
		if ov, ok := r.overrides[o.Vertex]; !ok || ov != consistent.AgentID(o.AgentID) {
			return false
		}
	}
	return true
}

// Rerouted describes what the last Update did to routes. sketchOnly true
// means it changed nothing but the sketch, and vs lists every vertex whose
// route it dropped because its replica count changed — among vertices
// looked up since the last wholesale install, the only ones the cache
// knows. sketchOnly false means membership or overrides changed and any
// route may have moved. vs is reused by the next Update.
func (r *Router) Rerouted() (vs []graph.VertexID, sketchOnly bool) {
	return r.rerouted, r.sketchOnly
}

// Epoch returns the installed view's epoch.
func (r *Router) Epoch() uint64 { return r.epoch }

// BatchID returns the installed view's batch clock.
func (r *Router) BatchID() uint64 { return r.batch }

// N returns the view's global vertex count estimate.
func (r *Router) N() uint64 { return r.n }

// NumAgents returns the member count.
func (r *Router) NumAgents() int { return r.ring.Size() }

// Agents returns the member IDs.
func (r *Router) Agents() []consistent.AgentID { return r.ring.Members() }

// AddrOf maps an agent ID to its listen address.
func (r *Router) AddrOf(id consistent.AgentID) (string, bool) {
	a, ok := r.addrs[uint64(id)]
	return a, ok
}

// Replicas returns k for vertex v: the sketch degree estimate pushed
// through the replication policy, capped by the ring size.
func (r *Router) Replicas(v graph.VertexID) int {
	return r.routeOf(v).k
}

// DegreeEstimate exposes the sketch estimate (Fig. 7 instrumentation). It
// reads the sketch of the last view installed; the directory's own merge
// may have moved on, by less than a replica bucket per cell.
func (r *Router) DegreeEstimate(v graph.VertexID) uint64 {
	return r.sk.Estimate(uint64(v))
}

// EdgeOwner resolves the agent owning vertex u's copy of edge (u,other):
// the two-level lookup of Figure 3. The first level (u's replica window)
// comes from the cache; only the cheap second hash over the destination
// runs per edge.
func (r *Router) EdgeOwner(u, other graph.VertexID) (consistent.AgentID, bool) {
	rt := r.routeOf(u)
	if len(rt.set) == 0 {
		return 0, false
	}
	if rt.k <= 1 {
		return rt.set[0], true
	}
	return r.ring.PickReplica(rt.set, uint64(other))
}

// CopyOwner resolves the owner of one routed edge-change copy: Out copies
// key on Src, In copies key on Dst.
func (r *Router) CopyOwner(c wire.EdgeChange) (consistent.AgentID, bool) {
	if c.Dir == graph.Out {
		return r.EdgeOwner(c.Src, c.Dst)
	}
	return r.EdgeOwner(c.Dst, c.Src)
}

// ReplicaSet returns vertex v's replica agents; index 0 is the master.
// The returned slice is shared with the cache: callers must not mutate or
// retain it across a view Update (use ReplicaSetInto for an owned copy).
func (r *Router) ReplicaSet(v graph.VertexID) []consistent.AgentID {
	return r.routeOf(v).set
}

// ReplicaSetInto copies v's replica set into out (reset to out[:0]),
// allocating nothing when out has capacity.
func (r *Router) ReplicaSetInto(v graph.VertexID, out []consistent.AgentID) []consistent.AgentID {
	return append(out[:0], r.routeOf(v).set...)
}

// IsReplica reports whether id is one of v's replicas, without
// materializing the set.
func (r *Router) IsReplica(v graph.VertexID, id consistent.AgentID) bool {
	for _, a := range r.routeOf(v).set {
		if a == id {
			return true
		}
	}
	return false
}

// Master returns v's master replica without allocating.
func (r *Router) Master(v graph.VertexID) (consistent.AgentID, bool) {
	set := r.routeOf(v).set
	if len(set) == 0 {
		return 0, false
	}
	return set[0], true
}

// AnyReplica returns one of v's replicas, chosen by salt — the random-
// replica query fast path of §3.4.1.
func (r *Router) AnyReplica(v graph.VertexID, salt uint64) (consistent.AgentID, bool) {
	rt := r.routeOf(v)
	if len(rt.set) == 0 {
		return 0, false
	}
	if rt.k <= 1 {
		return rt.set[0], true
	}
	return rt.set[salt%uint64(len(rt.set))], true
}

// Split reports whether v is split across multiple agents.
func (r *Router) Split(v graph.VertexID) bool { return r.routeOf(v).k > 1 }

// IsMember reports ring membership.
func (r *Router) IsMember(id consistent.AgentID) bool { return r.ring.Contains(id) }

// NumOverrides returns the size of the installed placement override table.
func (r *Router) NumOverrides() int { return len(r.overrides) }

// Override returns the placement override for v, if one is installed.
// Whether it actually governs routing also depends on the vertex being
// unsplit and the target being a live member (see computeRoute).
func (r *Router) Override(v graph.VertexID) (consistent.AgentID, bool) {
	ov, ok := r.overrides[v]
	return ov, ok
}

// Overrides returns a copy of the installed placement override table.
func (r *Router) Overrides() map[graph.VertexID]consistent.AgentID {
	out := make(map[graph.VertexID]consistent.AgentID, len(r.overrides))
	for v, a := range r.overrides {
		out[v] = a
	}
	return out
}

// Config returns the shared cluster configuration.
func (r *Router) Config() config.Config { return r.cfg }
