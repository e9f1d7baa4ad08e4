// Package stinger is the STINGER-role baseline of §4.8: a shared-memory
// dynamic graph structure maintaining weakly connected components under
// single-edge and small-batch insertions, with a global view of the graph
// (the property the paper credits for STINGER's ability to "optimize for
// some easy batches").
//
// The structure mirrors STINGER's design at laptop scale: per-vertex
// blocked adjacency lists (fixed-size edge blocks chained together) and
// an incremental component index. Insertions that connect two components
// relabel the smaller component (union by size); deletions fall back to a
// bounded recomputation of the affected component, as dynamic-CC
// maintenance without strong certificates must.
package stinger

import (
	"elga/internal/graph"
)

// blockSize is the STINGER edge-block capacity.
const blockSize = 16

type edgeBlock struct {
	edges [blockSize]graph.VertexID
	n     int
	next  *edgeBlock
}

// Graph is a shared-memory dynamic undirected graph with maintained
// weakly connected components.
type Graph struct {
	adj  map[graph.VertexID]*edgeBlock
	comp map[graph.VertexID]graph.VertexID
	// members lists each component's vertices, keyed by label, to make
	// smaller-side relabeling O(|smaller|).
	members map[graph.VertexID][]graph.VertexID
	m       int
}

// New creates an empty graph.
func New() *Graph {
	return &Graph{
		adj:     make(map[graph.VertexID]*edgeBlock),
		comp:    make(map[graph.VertexID]graph.VertexID),
		members: make(map[graph.VertexID][]graph.VertexID),
	}
}

// NumEdges returns the inserted (undirected) edge count.
func (g *Graph) NumEdges() int { return g.m }

// NumVertices returns the vertex count.
func (g *Graph) NumVertices() int { return len(g.comp) }

func (g *Graph) ensureVertex(v graph.VertexID) {
	if _, ok := g.comp[v]; ok {
		return
	}
	g.comp[v] = v
	g.members[v] = append(g.members[v], v)
}

func (g *Graph) addHalf(u, v graph.VertexID) {
	b := g.adj[u]
	if b == nil || b.n == blockSize {
		nb := &edgeBlock{next: b}
		g.adj[u] = nb
		b = nb
	}
	b.edges[b.n] = v
	b.n++
}

func (g *Graph) hasEdge(u, v graph.VertexID) bool {
	for b := g.adj[u]; b != nil; b = b.next {
		for i := 0; i < b.n; i++ {
			if b.edges[i] == v {
				return true
			}
		}
	}
	return false
}

// neighbors iterates u's adjacency.
func (g *Graph) neighbors(u graph.VertexID, fn func(graph.VertexID) bool) {
	for b := g.adj[u]; b != nil; b = b.next {
		for i := 0; i < b.n; i++ {
			if !fn(b.edges[i]) {
				return
			}
		}
	}
}

// Component returns v's current component label.
func (g *Graph) Component(v graph.VertexID) (graph.VertexID, bool) {
	c, ok := g.comp[v]
	return c, ok
}

// InsertEdge adds undirected edge (u,v), merging components incrementally:
// the smaller component adopts the larger one's label. Duplicate edges are
// ignored. It reports whether the edge was new.
func (g *Graph) InsertEdge(u, v graph.VertexID) bool {
	if u == v || g.hasEdge(u, v) {
		return false
	}
	g.ensureVertex(u)
	g.ensureVertex(v)
	g.addHalf(u, v)
	g.addHalf(v, u)
	g.m++
	cu, cv := g.comp[u], g.comp[v]
	if cu == cv {
		return true
	}
	// Union by size: relabel the smaller side.
	if len(g.members[cu]) < len(g.members[cv]) {
		cu, cv = cv, cu
	}
	// Keep the canonical minimum label so results compare with
	// min-propagation WCC.
	winner := cu
	if cv < cu {
		// Relabel the larger side's *label* cheaply by swapping the
		// member lists: adopt the smaller numeric label for the merged
		// component while still walking the smaller member list.
		winner = cv
	}
	loserList := g.members[cv]
	winnerList := g.members[cu]
	if winner == cv {
		// The numerically smaller label belongs to the smaller side:
		// relabel the larger list, which costs more but keeps labels
		// canonical (STINGER pays the same to report stable IDs).
		loserList, winnerList = winnerList, loserList
		cu, cv = cv, cu
	}
	for _, w := range loserList {
		g.comp[w] = winner
	}
	g.members[winner] = append(winnerList, loserList...)
	delete(g.members, cv)
	return true
}

// DeleteEdge removes undirected edge (u,v) and repairs the component
// index by recomputing the affected component with a BFS from u — the
// unavoidable "unsafe deletion" path of dynamic CC.
func (g *Graph) DeleteEdge(u, v graph.VertexID) bool {
	if !g.hasEdge(u, v) {
		return false
	}
	g.removeHalf(u, v)
	g.removeHalf(v, u)
	g.m--
	// Recompute the component containing u and v.
	old := g.comp[u]
	affected := g.members[old]
	delete(g.members, old)
	seen := make(map[graph.VertexID]bool, len(affected))
	for _, w := range affected {
		if seen[w] {
			continue
		}
		// BFS to find w's new component; label = min vertex ID found.
		frontier := []graph.VertexID{w}
		seen[w] = true
		compMembers := []graph.VertexID{w}
		min := w
		for len(frontier) > 0 {
			x := frontier[0]
			frontier = frontier[1:]
			g.neighbors(x, func(y graph.VertexID) bool {
				if !seen[y] {
					seen[y] = true
					frontier = append(frontier, y)
					compMembers = append(compMembers, y)
					if y < min {
						min = y
					}
				}
				return true
			})
		}
		for _, x := range compMembers {
			g.comp[x] = min
		}
		g.members[min] = compMembers
	}
	return true
}

func (g *Graph) removeHalf(u, v graph.VertexID) {
	for b := g.adj[u]; b != nil; b = b.next {
		for i := 0; i < b.n; i++ {
			if b.edges[i] == v {
				b.edges[i] = b.edges[b.n-1]
				b.n--
				return
			}
		}
	}
}

// ApplyBatch applies a change batch, returning the number of effective
// changes — the Figure 13 maintenance operation.
func (g *Graph) ApplyBatch(b graph.Batch) int {
	applied := 0
	for _, c := range b {
		var ok bool
		if c.Action == graph.Insert {
			ok = g.InsertEdge(c.Src, c.Dst)
		} else {
			ok = g.DeleteEdge(c.Src, c.Dst)
		}
		if ok {
			applied++
		}
	}
	return applied
}
