// Package graph provides the per-agent dynamic graph store.
//
// The paper (§4) stores the dynamic graph "as a flat hash map with
// vectors". The tests keep that literal shape as the reference the
// production Store is checked against; the Store itself is a hybrid
// CSR-plus-delta-log structure: sealed immutable CSR runs (sorted,
// compact, offset-indexed into two store-wide arrays) plus a small mutable
// tail of recent inserts and deletes, folded into a fresh sealed
// generation when the tail crosses a size threshold. Callers never see the
// representation: neighbour access goes through cursors, which yield a
// canonical ascending order regardless of compaction timing.
//
// A Store holds only the slice of the graph owned by one agent. Each edge
// copy is tagged with the direction it represents locally, because in
// ElGA's partition the out-copy of (u,v) and the in-copy can live on
// different agents.
package graph

// VertexID is a 64-bit vertex identifier, matching the paper's
// configuration of all systems with 64-bit IDs.
type VertexID uint64

// Action is the d component of a change (d,u,v): insert or delete.
type Action uint8

const (
	// Insert adds the edge if absent.
	Insert Action = iota
	// Delete removes the edge if present.
	Delete
)

// String returns "+" for Insert and "-" for Delete.
func (a Action) String() string {
	if a == Delete {
		return "-"
	}
	return "+"
}

// Change is one element of the turnstile stream D = (c1, c2, ...).
type Change struct {
	Action Action
	Src    VertexID
	Dst    VertexID
}

// Batch is a contiguous segment of the change stream (Definition 2.4).
type Batch []Change

// Dir tags which direction an edge copy represents on this agent.
type Dir uint8

const (
	// Out marks the copy stored under the edge's source.
	Out Dir = iota
	// In marks the copy stored under the edge's destination.
	In
)

// EdgeCopy describes one stored copy for migration enumeration.
type EdgeCopy struct {
	Src VertexID
	Dst VertexID
	Dir Dir
}

// Key returns the vertex the copy is stored under: Src for an Out copy,
// Dst for an In copy.
func (c EdgeCopy) Key() VertexID {
	if c.Dir == In {
		return c.Dst
	}
	return c.Src
}

// Nbr returns the copy's other endpoint, the neighbour of Key.
func (c EdgeCopy) Nbr() VertexID {
	if c.Dir == In {
		return c.Src
	}
	return c.Dst
}
