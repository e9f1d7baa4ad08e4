// Package consistent implements ElGA's consistent-hash ring with virtual
// agents and the two-level edge→agent lookup of Figure 3.
//
// Every Participant (agent, streamer, client proxy) holds a copy of the
// ring built from the directory's agent list. An agent contributes V
// virtual points (default 100, paper §3.4.2). A bucket index over the top
// bits of the hash lands a lookup within about one point of its successor,
// so each hop is O(1) expected rather than a binary search over the P·V
// points. When an agent joins or leaves only the keys adjacent to its
// points move — the property that makes elastic scaling cheap (paper §2.3,
// Fig. 16).
package consistent

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"

	"elga/internal/hashing"
)

// AgentID identifies an agent uniquely for the lifetime of the cluster.
// IDs are allocated by the directory system and never reused.
type AgentID uint64

// DefaultVirtual is the paper's experimentally chosen virtual-agent count
// (§3.4.2, Figure 6): below 100 the load balance suffers, above it lookup
// cost grows without meaningful balance improvement.
const DefaultVirtual = 100

// point is one virtual agent: a position on the ring and its agent's
// position in the member list.
type point struct {
	hash uint64
	at   uint32
}

// Ring is an immutable consistent-hash ring. Build a new Ring whenever the
// membership changes; Participants swap rings atomically when a directory
// update arrives. Immutability keeps the shared-nothing model honest — a
// ring can be shared read-only between goroutines without locks.
type Ring struct {
	points  []point
	members []AgentID // sorted, deduplicated
	virtual int
	hash    hashing.Func

	// The bucket index: bucket b holds the position of the first point whose
	// hash is at or after b<<shift, len(points) when none is. There are about
	// two buckets a point (4 KiB for 5 agents at 100 points each), so a
	// lookup scans about one point past its bucket's first.
	shift uint
	index []uint32
}

// Options configures ring construction.
type Options struct {
	// Virtual is the number of points per agent; 0 means DefaultVirtual.
	Virtual int
	// Hash selects the placement hash; zero value is Wang64.
	Hash hashing.Func
}

// New builds a ring from the given member set. Duplicate members are
// ignored. An empty ring is valid (lookups report ok=false).
func New(members []AgentID, opts Options) *Ring {
	v := opts.Virtual
	if v <= 0 {
		v = DefaultVirtual
	}
	uniq := slices.Clone(members)
	slices.Sort(uniq)
	uniq = slices.Compact(uniq)
	r := &Ring{
		points:  make([]point, 0, len(uniq)*v),
		members: uniq,
		virtual: v,
		hash:    opts.Hash,
	}
	for at, m := range uniq {
		base := r.hash.Hash(uint64(m))
		for i := 0; i < v; i++ {
			// Derive each virtual point from the agent ID and the
			// replica index; Combine re-mixes so points scatter.
			h := hashing.Combine(base, uint64(i)+1)
			r.points = append(r.points, point{hash: h, at: uint32(at)})
		}
	}
	// Members are sorted, so ties on a hash break by agent ID.
	slices.SortFunc(r.points, func(a, b point) int {
		if a.hash != b.hash {
			return cmp.Compare(a.hash, b.hash)
		}
		return cmp.Compare(a.at, b.at)
	})
	r.buildIndex()
	return r
}

// buildIndex sizes the bucket index at the power of two at or above twice
// the point count and fills it in one sweep of the sorted points.
func (r *Ring) buildIndex() {
	n := len(r.points)
	if n == 0 {
		return
	}
	logBuckets := bits.Len(uint(2*n - 1))
	r.shift = uint(64 - logBuckets)
	r.index = make([]uint32, 1<<logBuckets)
	j := 0
	for b := range r.index {
		for j < n && r.points[j].hash>>r.shift < uint64(b) {
			j++
		}
		r.index[b] = uint32(j)
	}
}

// Members returns the sorted member list. Callers must not mutate it.
func (r *Ring) Members() []AgentID { return r.members }

// Size returns the number of distinct agents on the ring.
func (r *Ring) Size() int { return len(r.members) }

// Virtual returns the per-agent virtual point count.
func (r *Ring) Virtual() int { return r.virtual }

// Contains reports whether the agent is a ring member.
func (r *Ring) Contains(a AgentID) bool {
	_, ok := r.Index(a)
	return ok
}

// Index returns a's position in Members(), the dense index a Participant
// can address per-agent buffers by while this ring is installed.
func (r *Ring) Index(a AgentID) (int, bool) {
	return slices.BinarySearch(r.members, a)
}

// successor returns the index of the first point with hash >= h, wrapping:
// the first point of h's bucket, and forward from there. The ring must not
// be empty.
func (r *Ring) successor(h uint64) int {
	i := int(r.index[h>>r.shift])
	for i < len(r.points) && r.points[i].hash < h {
		i++
	}
	if i == len(r.points) {
		return 0
	}
	return i
}

// Owner returns the agent owning hash position h (the next point at or
// after h on the ring). ok is false for an empty ring.
func (r *Ring) Owner(h uint64) (AgentID, bool) {
	if i, ok := r.ownerIndex(h); ok {
		return r.members[i], true
	}
	return 0, false
}

// ownerIndex is Owner answering with the owner's position in Members().
func (r *Ring) ownerIndex(h uint64) (int, bool) {
	if len(r.points) == 0 {
		return 0, false
	}
	return int(r.points[r.successor(h)].at), true
}

// OwnerIndexOfVertex is OwnerOfVertex answering with the owner's position
// in Members().
func (r *Ring) OwnerIndexOfVertex(v uint64) (int, bool) {
	return r.ownerIndex(r.hash.Hash(v))
}

// OwnerOfVertex returns the primary owner for vertex v: the successor of
// hash(v). This is the k=1 fast path and the first of the two consistent
// hashes in Figure 3.
func (r *Ring) OwnerOfVertex(v uint64) (AgentID, bool) {
	return r.Owner(r.hash.Hash(v))
}

// Successors returns up to k *distinct* agents starting at the successor
// of h, walking the ring in point order. If the ring has fewer than k
// members all members are returned (in walk order). The result is the
// replica set for a split vertex.
func (r *Ring) Successors(h uint64, k int) []AgentID {
	if len(r.points) == 0 || k <= 0 {
		return nil
	}
	if k > len(r.members) {
		k = len(r.members)
	}
	return r.SuccessorsInto(h, k, make([]AgentID, 0, k))
}

// SuccessorsInto is Successors writing into out (reset to out[:0]); it
// performs no allocation when out has capacity k. Deduplication is a
// linear scan of the partial result, which beats a map for the small k
// values the replication policy produces.
func (r *Ring) SuccessorsInto(h uint64, k int, out []AgentID) []AgentID {
	out = out[:0]
	if len(r.points) == 0 || k <= 0 {
		return out
	}
	if k > len(r.members) {
		k = len(r.members)
	}
	start := r.successor(h)
	for i := 0; i < len(r.points) && len(out) < k; i++ {
		if a := r.members[r.points[(start+i)%len(r.points)].at]; !slices.Contains(out, a) {
			out = append(out, a)
		}
	}
	return out
}

// ReplicaIndexesInto is ReplicaSetInto answering with the replicas'
// positions in Members(), allocating nothing when out has capacity k.
func (r *Ring) ReplicaIndexesInto(v uint64, k int, out []int32) []int32 {
	out = out[:0]
	if len(r.points) == 0 || k <= 0 {
		return out
	}
	k = min(k, len(r.members))
	start := r.successor(r.hash.Hash(v))
	for i := 0; i < len(r.points) && len(out) < k; i++ {
		if at := int32(r.points[(start+i)%len(r.points)].at); !slices.Contains(out, at) {
			out = append(out, at)
		}
	}
	return out
}

// ReplicaSet returns the replica agents for vertex v when it is split k
// ways: the k distinct ring successors of hash(v). Index 0 is the master
// replica (the agent that combines partial state between supersteps).
func (r *Ring) ReplicaSet(v uint64, k int) []AgentID {
	return r.Successors(r.hash.Hash(v), k)
}

// ReplicaSetInto is ReplicaSet writing into out (reset to out[:0]),
// allocating nothing when out has capacity k.
func (r *Ring) ReplicaSetInto(v uint64, k int, out []AgentID) []AgentID {
	return r.SuccessorsInto(r.hash.Hash(v), k, out)
}

// PickReplica applies the second-level hash of Figure 3 to an already
// resolved replica set: the destination vertex v selects which replica of
// the set stores the edge. set must be a (prefix of a) result of
// ReplicaSet/Successors for the answer to match EdgeOwner.
func (r *Ring) PickReplica(set []AgentID, v uint64) (AgentID, bool) {
	if len(set) == 0 {
		return 0, false
	}
	return set[r.PickIndex(len(set), v)], true
}

// PickIndex is PickReplica's choice as a position in a replica set of n > 0
// agents, for callers that hold the set in another form.
func (r *Ring) PickIndex(n int, v uint64) int {
	return int(hashing.Combine(r.hash.Hash(v), uint64(n)) % uint64(n))
}

// EdgeOwner resolves the owner of edge (u,v) given u's replica count k:
// the first consistent hash picks the k successors of hash(u); the second
// hash, over the destination v, picks which replica stores the edge
// (Figure 3). k <= 1 bypasses the second hash.
func (r *Ring) EdgeOwner(u, v uint64, k int) (AgentID, bool) {
	if len(r.points) == 0 {
		return 0, false
	}
	if k <= 1 {
		return r.OwnerOfVertex(u)
	}
	return r.PickReplica(r.ReplicaSet(u, k), v)
}

// AnyReplica returns one replica of vertex v chosen by the salt (callers
// pass a random or rotating value). Per §3.4.1, queries that only need
// *some* agent responsible for v bypass the second hash.
func (r *Ring) AnyReplica(v uint64, k int, salt uint64) (AgentID, bool) {
	if k <= 1 {
		return r.OwnerOfVertex(v)
	}
	set := r.ReplicaSet(v, k)
	if len(set) == 0 {
		return 0, false
	}
	return set[salt%uint64(len(set))], true
}

// WithMember returns a new ring with agent a added (no-op copy if present).
func (r *Ring) WithMember(a AgentID) *Ring {
	if r.Contains(a) {
		return r
	}
	return New(append(append([]AgentID{}, r.members...), a), Options{Virtual: r.virtual, Hash: r.hash})
}

// WithoutMember returns a new ring with agent a removed.
func (r *Ring) WithoutMember(a AgentID) *Ring {
	if !r.Contains(a) {
		return r
	}
	rest := make([]AgentID, 0, len(r.members)-1)
	for _, m := range r.members {
		if m != a {
			rest = append(rest, m)
		}
	}
	return New(rest, Options{Virtual: r.virtual, Hash: r.hash})
}

// MovedFraction estimates, by sampling n keys, the fraction of key space
// whose owner differs between rings a and b. It quantifies migration cost
// for Figure 16a.
func MovedFraction(a, b *Ring, n int) float64 {
	if n <= 0 {
		return 0
	}
	moved := 0
	for i := 0; i < n; i++ {
		key := hashing.Wang(uint64(i) + 0x5ca1ab1e)
		oa, okA := a.Owner(key)
		ob, okB := b.Owner(key)
		if okA != okB || oa != ob {
			moved++
		}
	}
	return float64(moved) / float64(n)
}

// LoadCounts assigns n sampled keys to owners and returns the per-agent
// key counts, the raw material for the load-balance distributions of
// Figures 5b and 6.
func (r *Ring) LoadCounts(n int) map[AgentID]int {
	counts := make(map[AgentID]int, len(r.members))
	for _, m := range r.members {
		counts[m] = 0
	}
	for i := 0; i < n; i++ {
		key := hashing.Wang(uint64(i) + 0xfeedface)
		if a, ok := r.Owner(key); ok {
			counts[a]++
		}
	}
	return counts
}

// String summarizes the ring for logs.
func (r *Ring) String() string {
	return fmt.Sprintf("ring{agents=%d virtual=%d hash=%s}", len(r.members), r.virtual, r.hash)
}
