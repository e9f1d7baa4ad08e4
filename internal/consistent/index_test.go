package consistent

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"elga/internal/hashing"
)

// refPoint is a virtual point as the reference ring keeps it: the agent
// itself, not its position.
type refPoint struct {
	hash  uint64
	agent AgentID
}

// refRing is the ring the bucket index must reproduce: the same points,
// sorted by hash then agent, searched with sort.Search.
type refRing struct {
	points  []refPoint
	members []AgentID
}

func newRefRing(members []AgentID, v int, h hashing.Func) *refRing {
	r := &refRing{members: append([]AgentID(nil), members...)}
	sort.Slice(r.members, func(i, j int) bool { return r.members[i] < r.members[j] })
	for _, m := range r.members {
		base := h.Hash(uint64(m))
		for i := 0; i < v; i++ {
			r.points = append(r.points, refPoint{hash: hashing.Combine(base, uint64(i)+1), agent: m})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.points[i].agent < r.points[j].agent
	})
	return r
}

func (r *refRing) successor(h uint64) int {
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		return 0
	}
	return i
}

func (r *refRing) index(a AgentID) int {
	return sort.Search(len(r.members), func(i int) bool { return r.members[i] >= a })
}

// successors is the distinct-agent walk from h's successor, all members.
func (r *refRing) successors(h uint64) []AgentID {
	var out []AgentID
	start := r.successor(h)
	for i := 0; i < len(r.points) && len(out) < len(r.members); i++ {
		a := r.points[(start+i)%len(r.points)].agent
		dup := false
		for _, b := range out {
			dup = dup || a == b
		}
		if !dup {
			out = append(out, a)
		}
	}
	return out
}

// TestRingIndexMatchesSearch checks the bucket index against a binary
// search over the same points, on rings of 1 to 64 members at 1, 7 and 100
// points a member. Every point's hash, that hash ±1, 0, MaxUint64 and random
// values must give the reference's owner, its position in the member list
// and the position the point carries; the walk of k distinct successors,
// for every k up to the member count, is checked at 0, MaxUint64, random
// values and the hashes (±1) of 32 points spread over the ring — it starts
// where Owner does and walks the same points from there.
func TestRingIndexMatchesSearch(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	var buf []AgentID
	var at []int32
	for _, v := range []int{1, 7, 100} {
		for p := 1; p <= 64; p++ {
			members := make([]AgentID, p)
			for i := range members {
				members[i] = AgentID(rng.Uint64())
			}
			r := New(members, Options{Virtual: v})
			ref := newRefRing(members, v, hashing.Wang64)
			if len(r.points) != len(ref.points) {
				t.Fatalf("P=%d V=%d: %d points, reference %d", p, v, len(r.points), len(ref.points))
			}
			for i, pt := range r.points {
				if pt.hash != ref.points[i].hash || r.members[pt.at] != ref.points[i].agent {
					t.Fatalf("P=%d V=%d: point %d is (%x, member %d), reference (%x, %d)",
						p, v, i, pt.hash, r.members[pt.at], ref.points[i].hash, ref.points[i].agent)
				}
			}
			walked := []uint64{0, math.MaxUint64}
			for i := 0; i < 8; i++ {
				walked = append(walked, rng.Uint64())
			}
			for i := 0; i < len(ref.points); i += max(1, len(ref.points)/32) {
				h := ref.points[i].hash
				walked = append(walked, h-1, h, h+1)
			}
			hashes := append([]uint64(nil), walked...)
			for _, pt := range ref.points {
				hashes = append(hashes, pt.hash-1, pt.hash, pt.hash+1)
			}
			for _, h := range hashes {
				want := ref.points[ref.successor(h)]
				got, ok := r.Owner(h)
				if !ok || got != want.agent {
					t.Fatalf("P=%d V=%d: Owner(%x) = %d,%v, reference %d", p, v, h, got, ok, want.agent)
				}
				i, ok := r.ownerIndex(h)
				if !ok || i != ref.index(want.agent) {
					t.Fatalf("P=%d V=%d: ownerIndex(%x) = %d,%v, reference %d", p, v, h, i, ok, ref.index(want.agent))
				}
				if j, ok := r.Index(got); !ok || j != i {
					t.Fatalf("P=%d V=%d: Index(%d) = %d,%v, want %d", p, v, got, j, ok, i)
				}
			}
			for _, h := range walked {
				want := ref.successors(h)
				for k := 1; k <= p; k++ {
					buf = r.SuccessorsInto(h, k, buf)
					if len(buf) != k {
						t.Fatalf("P=%d V=%d: SuccessorsInto(%x, %d) has %d agents", p, v, h, k, len(buf))
					}
					for i := range buf {
						if buf[i] != want[i] {
							t.Fatalf("P=%d V=%d: SuccessorsInto(%x, %d) = %v, reference %v", p, v, h, k, buf, want[:k])
						}
					}
				}
			}
			// ReplicaIndexesInto hashes a vertex; check it walks the same
			// successors as SuccessorsInto from that vertex's hash.
			for i := 0; i < 8; i++ {
				u := rng.Uint64()
				want := ref.successors(hashing.Wang64.Hash(u))
				at = r.ReplicaIndexesInto(u, p, at)
				for i, j := range at {
					if r.members[j] != want[i] {
						t.Fatalf("P=%d V=%d: ReplicaIndexesInto(%d) = %v, reference %v", p, v, u, at, want)
					}
				}
			}
		}
	}
}
