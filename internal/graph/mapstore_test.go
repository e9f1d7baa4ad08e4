package graph

import "slices"

// EdgeStore is the surface the property tests drive both stores through:
// the CSR+delta Store the product uses and the MapStore reference.
// Neighbour lists are read outside it, through a Store's cursors (nbrsOf)
// and MapStore.nbrs.
type EdgeStore interface {
	AddEdge(u, v VertexID, dir Dir) bool
	RemoveEdge(u, v VertexID, dir Dir) bool
	Apply(c Change, dir Dir) bool
	ApplyBatch(b Batch, dir Dir) []VertexID
	HasVertex(v VertexID) bool
	Degree(v VertexID) (out, in int)
	Pin(v VertexID)
	Unpin(v VertexID)
	DropVertex(v VertexID) (out, in int)
	MarkActive(v VertexID)
	ClearActive(v VertexID)
	IsActive(v VertexID) bool
	ActiveCount() int
	ActiveList() []VertexID
	NumVertices() int
	NumOutEdges() int
	NumEdgeCopies() int
	VertexList() []VertexID
	Copies(fn func(EdgeCopy) bool)
	TakeActive() []VertexID
	MemoryBytes() uint64
	BytesPerEdge() float64
}

var (
	_ EdgeStore = (*Store)(nil)
	_ EdgeStore = (*MapStore)(nil)
)

type adjacency struct {
	out []VertexID
	in  []VertexID
}

// MapStore is the paper's §4 "flat hash map with vectors" taken literally:
// a map from vertex ID to out/in neighbour vectors, O(1) amortized insert,
// O(deg) swap-remove delete. It is the reference the CSR+delta Store is
// property-tested against, and the memory baseline its footprint is
// checked against (TestCSRFootprintBelowMapStore).
type MapStore struct {
	adj      map[VertexID]*adjacency
	numOut   int
	numIn    int
	active   map[VertexID]struct{}
	pinEmpty map[VertexID]struct{} // vertices kept alive despite zero local edges
}

// NewMapStore returns an empty map-of-slices store.
func NewMapStore() *MapStore {
	return &MapStore{
		adj:      make(map[VertexID]*adjacency),
		active:   make(map[VertexID]struct{}),
		pinEmpty: make(map[VertexID]struct{}),
	}
}

// NumVertices returns the count of vertices with at least one local edge
// copy (or a pin).
func (s *MapStore) NumVertices() int { return len(s.adj) }

// NumOutEdges returns the number of locally stored out-copies.
func (s *MapStore) NumOutEdges() int { return s.numOut }

// NumEdgeCopies returns out+in copies.
func (s *MapStore) NumEdgeCopies() int { return s.numOut + s.numIn }

func (s *MapStore) record(v VertexID) *adjacency {
	a := s.adj[v]
	if a == nil {
		a = &adjacency{}
		s.adj[v] = a
	}
	return a
}

// Pin keeps vertex v in the store even with zero local edges.
func (s *MapStore) Pin(v VertexID) {
	s.record(v)
	s.pinEmpty[v] = struct{}{}
}

// Unpin removes the pin; the vertex is dropped if it has no edges left.
func (s *MapStore) Unpin(v VertexID) {
	delete(s.pinEmpty, v)
	s.maybeDrop(v)
}

func (s *MapStore) maybeDrop(v VertexID) {
	if a, ok := s.adj[v]; ok && len(a.out) == 0 && len(a.in) == 0 {
		if _, pinned := s.pinEmpty[v]; !pinned {
			delete(s.adj, v)
			delete(s.active, v)
		}
	}
}

// remove swap-removes v: order is NOT preserved, which is why nbrs
// sorts on read.
func remove(list []VertexID, v VertexID) ([]VertexID, bool) {
	for i, x := range list {
		if x == v {
			list[i] = list[len(list)-1]
			return list[:len(list)-1], true
		}
	}
	return list, false
}

// AddEdge stores a copy of edge (u,v) in direction dir.
func (s *MapStore) AddEdge(u, v VertexID, dir Dir) bool {
	switch dir {
	case Out:
		a := s.record(u)
		if slices.Contains(a.out, v) {
			return false
		}
		a.out = append(a.out, v)
		s.numOut++
	case In:
		a := s.record(v)
		if slices.Contains(a.in, u) {
			return false
		}
		a.in = append(a.in, u)
		s.numIn++
	}
	return true
}

// RemoveEdge deletes the stored copy of (u,v) in direction dir.
func (s *MapStore) RemoveEdge(u, v VertexID, dir Dir) bool {
	switch dir {
	case Out:
		a, ok := s.adj[u]
		if !ok {
			return false
		}
		var removed bool
		a.out, removed = remove(a.out, v)
		if removed {
			s.numOut--
			s.maybeDrop(u)
		}
		return removed
	case In:
		a, ok := s.adj[v]
		if !ok {
			return false
		}
		var removed bool
		a.in, removed = remove(a.in, u)
		if removed {
			s.numIn--
			s.maybeDrop(v)
		}
		return removed
	}
	return false
}

// Apply applies one change in direction dir, marking the locally stored
// endpoint active if the topology changed.
func (s *MapStore) Apply(c Change, dir Dir) bool {
	var changed bool
	if c.Action == Insert {
		changed = s.AddEdge(c.Src, c.Dst, dir)
	} else {
		changed = s.RemoveEdge(c.Src, c.Dst, dir)
	}
	if changed {
		if dir == Out {
			s.active[c.Src] = struct{}{}
		} else {
			s.active[c.Dst] = struct{}{}
		}
	}
	return changed
}

// ApplyBatch applies a change batch and returns the sorted frontier of
// locally stored endpoints whose topology actually changed.
func (s *MapStore) ApplyBatch(b Batch, dir Dir) []VertexID {
	if len(b) == 0 {
		return nil
	}
	touched := make(map[VertexID]struct{}, len(b))
	for _, c := range b {
		if s.Apply(c, dir) {
			if dir == Out {
				touched[c.Src] = struct{}{}
			} else {
				touched[c.Dst] = struct{}{}
			}
		}
	}
	if len(touched) == 0 {
		return nil
	}
	frontier := make([]VertexID, 0, len(touched))
	for v := range touched {
		frontier = append(frontier, v)
	}
	slices.Sort(frontier)
	return frontier
}

// HasVertex reports whether v has any local presence.
func (s *MapStore) HasVertex(v VertexID) bool {
	_, ok := s.adj[v]
	return ok
}

// Degree returns v's local out- and in-degrees.
func (s *MapStore) Degree(v VertexID) (out, in int) {
	if a, ok := s.adj[v]; ok {
		return len(a.out), len(a.in)
	}
	return 0, 0
}

// nbrs returns v's neighbours in direction dir, ascending. MapStore's
// swap-remove scrambles vector order, so the canonical order Store's
// cursors yield is recovered by sorting a copy.
func (s *MapStore) nbrs(v VertexID, dir Dir) []VertexID {
	a, ok := s.adj[v]
	if !ok {
		return nil
	}
	list := a.out
	if dir == In {
		list = a.in
	}
	if len(list) == 0 {
		return nil
	}
	out := slices.Clone(list)
	slices.Sort(out)
	return out
}

// VertexList returns all locally present vertices, sorted.
func (s *MapStore) VertexList() []VertexID {
	out := make([]VertexID, 0, len(s.adj))
	for v := range s.adj {
		out = append(out, v)
	}
	slices.Sort(out)
	return out
}

// DropVertex forgets every copy stored under v and returns how many out and
// in copies that was. A pinned vertex stays.
func (s *MapStore) DropVertex(v VertexID) (out, in int) {
	a, ok := s.adj[v]
	if !ok {
		return 0, 0
	}
	out, in = len(a.out), len(a.in)
	s.numOut -= out
	s.numIn -= in
	a.out, a.in = nil, nil
	s.maybeDrop(v)
	return out, in
}

// MarkActive adds v to the active set.
func (s *MapStore) MarkActive(v VertexID) { s.active[v] = struct{}{} }

// ClearActive removes v from the active set.
func (s *MapStore) ClearActive(v VertexID) { delete(s.active, v) }

// IsActive reports whether v is in the active set.
func (s *MapStore) IsActive(v VertexID) bool {
	_, ok := s.active[v]
	return ok
}

// ActiveCount returns the size of the active set.
func (s *MapStore) ActiveCount() int { return len(s.active) }

// ActiveList returns the active set sorted.
func (s *MapStore) ActiveList() []VertexID {
	if len(s.active) == 0 {
		return nil
	}
	out := make([]VertexID, 0, len(s.active))
	for v := range s.active {
		out = append(out, v)
	}
	slices.Sort(out)
	return out
}

// TakeActive returns the current active set sorted and resets it.
func (s *MapStore) TakeActive() []VertexID {
	out := s.ActiveList()
	s.active = make(map[VertexID]struct{})
	return out
}

// Copies calls fn for every stored edge copy until fn returns false.
func (s *MapStore) Copies(fn func(EdgeCopy) bool) {
	for v, a := range s.adj {
		for _, w := range a.out {
			if !fn(EdgeCopy{Src: v, Dst: w, Dir: Out}) {
				return
			}
		}
		for _, u := range a.in {
			if !fn(EdgeCopy{Src: u, Dst: v, Dir: In}) {
				return
			}
		}
	}
}

// MemoryBytes estimates the store's heap footprint, using the same
// accounting rules as Store.MemoryBytes so the bytes/edge comparison is
// apples-to-apples: map entry overhead per vertex plus vector capacity.
func (s *MapStore) MemoryBytes() uint64 {
	const (
		mapEntryBytes = 48 // key + pointer + bucket overhead
		adjBytes      = 48 // adjacency struct (two slice headers) + header
		setBytes      = 16
	)
	b := uint64(len(s.adj)) * (mapEntryBytes + adjBytes)
	for _, a := range s.adj {
		b += uint64(cap(a.out)+cap(a.in)) * 8
	}
	b += uint64(len(s.active)+len(s.pinEmpty)) * setBytes
	return b
}

// BytesPerEdge returns the estimated bytes per stored edge copy.
func (s *MapStore) BytesPerEdge() float64 {
	copies := s.NumEdgeCopies()
	if copies == 0 {
		return 0
	}
	return float64(s.MemoryBytes()) / float64(copies)
}
