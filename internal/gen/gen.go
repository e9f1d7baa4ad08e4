// Package gen provides the synthetic graph generators the reproduction
// uses in place of the paper's datasets: an R-MAT generator (the Graph500
// family, Table 2's Graph500-30), a BTER-style block generator that
// scales a measured degree/clustering profile (the role A-BTER plays in
// §4.4), uniform and preferential-attachment generators, and the
// dynamic-batch utilities that model graph change the way the paper does
// ("first deleting a random sample of edges and second adding the sample
// back in, as a batch").
//
// All generators are deterministic in their seed.
package gen

import (
	"math"
	"math/rand"
	"sort"

	"elga/internal/graph"
)

// RMATParams are the R-MAT quadrant probabilities; Graph500 uses
// (0.57, 0.19, 0.19, 0.05).
type RMATParams struct {
	A, B, C float64 // D = 1-A-B-C
}

// Graph500Params returns the standard Graph500 R-MAT parameters.
func Graph500Params() RMATParams { return RMATParams{A: 0.57, B: 0.19, C: 0.19} }

// RMAT generates 2^scale vertices and approximately m directed edges with
// the recursive-matrix skew of Chakrabarti et al. Self-loops and
// duplicates are removed, so the result can be slightly smaller than m.
func RMAT(scale int, m int, p RMATParams, seed int64) graph.EdgeList {
	rng := rand.New(rand.NewSource(seed))
	n := uint64(1) << uint(scale)
	el := make(graph.EdgeList, 0, m)
	for i := 0; i < m; i++ {
		var u, v uint64
		for bit := uint(0); bit < uint(scale); bit++ {
			r := rng.Float64()
			switch {
			case r < p.A:
				// upper-left: no bits set
			case r < p.A+p.B:
				v |= 1 << bit
			case r < p.A+p.B+p.C:
				u |= 1 << bit
			default:
				u |= 1 << bit
				v |= 1 << bit
			}
		}
		if u == v {
			continue
		}
		_ = n
		el = append(el, graph.Edge{Src: graph.VertexID(u), Dst: graph.VertexID(v)})
	}
	return el.Dedupe()
}

// Uniform generates m uniformly random directed edges over n vertices
// (Erdős–Rényi G(n,m) flavour), without self-loops, deduplicated.
func Uniform(n, m int, seed int64) graph.EdgeList {
	rng := rand.New(rand.NewSource(seed))
	el := make(graph.EdgeList, 0, m)
	for i := 0; i < m; i++ {
		u := graph.VertexID(rng.Intn(n))
		v := graph.VertexID(rng.Intn(n))
		if u == v {
			continue
		}
		el = append(el, graph.Edge{Src: u, Dst: v})
	}
	return el.Dedupe()
}

// Grid generates a side×side 4-neighbour grid with both edge directions,
// cell (r, c) being vertex r*side+c: diameter 2·(side−1) and degree ≤ 4, so
// a traversal from a corner is many supersteps of next to no compute.
func Grid(side int) graph.EdgeList {
	el := make(graph.EdgeList, 0, 4*side*(side-1))
	for r := 0; r < side; r++ {
		for c := 0; c < side; c++ {
			v, right, below := graph.VertexID(r*side+c), graph.VertexID(r*side+c+1), graph.VertexID((r+1)*side+c)
			if c+1 < side {
				el = append(el, graph.Edge{Src: v, Dst: right}, graph.Edge{Src: right, Dst: v})
			}
			if r+1 < side {
				el = append(el, graph.Edge{Src: v, Dst: below}, graph.Edge{Src: below, Dst: v})
			}
		}
	}
	return el
}

// PreferentialAttachment generates a Barabási–Albert-style graph: each new
// vertex attaches k edges to endpoints sampled proportionally to degree.
// Social-network stand-in with a heavy-tailed degree distribution.
func PreferentialAttachment(n, k int, seed int64) graph.EdgeList {
	if n < 2 || k < 1 {
		return nil
	}
	rng := rand.New(rand.NewSource(seed))
	var el graph.EdgeList
	// endpoint pool: each edge contributes both endpoints, giving
	// degree-proportional sampling.
	pool := []graph.VertexID{0, 1}
	el = append(el, graph.Edge{Src: 1, Dst: 0})
	for v := 2; v < n; v++ {
		for e := 0; e < k; e++ {
			t := pool[rng.Intn(len(pool))]
			if graph.VertexID(v) == t {
				continue
			}
			el = append(el, graph.Edge{Src: graph.VertexID(v), Dst: t})
			pool = append(pool, graph.VertexID(v), t)
		}
	}
	return el.Dedupe()
}

// Profile captures the structural fingerprint BTER preserves: a degree
// distribution (degree -> vertex count) plus a global clustering target.
type Profile struct {
	// DegreeCounts[d] is the number of vertices with degree d.
	DegreeCounts map[int]int
	// Clustering is the mean local clustering coefficient target.
	Clustering float64
}

// MeasureProfile extracts a profile from an existing (undirected-view)
// edge list — the "takes an existing graph, computes degree and
// clustering coefficient distributions" step of A-BTER (§4.4).
func MeasureProfile(el graph.EdgeList) Profile {
	deg := map[graph.VertexID]int{}
	for _, e := range el {
		deg[e.Src]++
		deg[e.Dst]++
	}
	p := Profile{DegreeCounts: map[int]int{}, Clustering: estimateClustering(el)}
	for _, d := range deg {
		p.DegreeCounts[d]++
	}
	return p
}

// estimateClustering computes the mean local clustering coefficient over
// a bounded sample of vertices (exact for small graphs).
func estimateClustering(el graph.EdgeList) float64 {
	adj := map[graph.VertexID]map[graph.VertexID]bool{}
	add := func(a, b graph.VertexID) {
		m := adj[a]
		if m == nil {
			m = map[graph.VertexID]bool{}
			adj[a] = m
		}
		m[b] = true
	}
	for _, e := range el {
		if e.Src != e.Dst {
			add(e.Src, e.Dst)
			add(e.Dst, e.Src)
		}
	}
	verts := make([]graph.VertexID, 0, len(adj))
	for v := range adj {
		verts = append(verts, v)
	}
	sort.Slice(verts, func(i, j int) bool { return verts[i] < verts[j] })
	const maxSample = 2000
	if len(verts) > maxSample {
		verts = verts[:maxSample]
	}
	total, counted := 0.0, 0
	for _, v := range verts {
		nbrs := make([]graph.VertexID, 0, len(adj[v]))
		for w := range adj[v] {
			nbrs = append(nbrs, w)
		}
		k := len(nbrs)
		if k < 2 {
			continue
		}
		links := 0
		for i := 0; i < k; i++ {
			for j := i + 1; j < k; j++ {
				if adj[nbrs[i]][nbrs[j]] {
					links++
				}
			}
		}
		total += 2 * float64(links) / float64(k*(k-1))
		counted++
	}
	if counted == 0 {
		return 0
	}
	return total / float64(counted)
}

// BTER generates a graph whose degree distribution follows the profile
// scaled by the given factor, with clustered affinity blocks — the BTER
// construction (communities of similar-degree vertices densely wired,
// plus a Chung-Lu excess-degree phase). It is this repository's stand-in
// for A-BTER's "scaled up graphs that share the same distributions".
func BTER(p Profile, scale float64, seed int64) graph.EdgeList {
	rng := rand.New(rand.NewSource(seed))
	// Expand the degree sequence, scaled.
	var degrees []int
	degs := make([]int, 0, len(p.DegreeCounts))
	for d := range p.DegreeCounts {
		degs = append(degs, d)
	}
	sort.Ints(degs)
	for _, d := range degs {
		count := int(math.Round(float64(p.DegreeCounts[d]) * scale))
		for i := 0; i < count; i++ {
			degrees = append(degrees, d)
		}
	}
	n := len(degrees)
	if n < 2 {
		return nil
	}
	// Shuffle vertex identities so IDs do not correlate with degree.
	perm := rng.Perm(n)

	var el graph.EdgeList
	residual := make([]float64, n)

	// Phase 1: affinity blocks. Group vertices of similar degree into
	// blocks of size d+1 and wire each block as a dense community with
	// edge probability derived from the clustering target.
	rho := math.Cbrt(p.Clustering)
	if rho > 0.95 {
		rho = 0.95
	}
	i := 0
	for i < n {
		d := degrees[i]
		if d < 1 {
			i++
			continue
		}
		size := d + 1
		if i+size > n {
			size = n - i
		}
		if size >= 2 {
			for a := i; a < i+size; a++ {
				for b := a + 1; b < i+size; b++ {
					if rng.Float64() < rho {
						el = append(el, graph.Edge{
							Src: graph.VertexID(perm[a]),
							Dst: graph.VertexID(perm[b]),
						})
					}
				}
			}
		}
		for a := i; a < i+size; a++ {
			used := rho * float64(size-1)
			r := float64(degrees[a]) - used
			if r < 0 {
				r = 0
			}
			residual[a] = r
		}
		i += size
	}

	// Phase 2: Chung-Lu on residual degrees.
	totalResidual := 0.0
	for _, r := range residual {
		totalResidual += r
	}
	if totalResidual > 1 {
		// Sample endpoints proportional to residual degree.
		cum := make([]float64, n+1)
		for j := 0; j < n; j++ {
			cum[j+1] = cum[j] + residual[j]
		}
		sample := func() int {
			x := rng.Float64() * totalResidual
			lo, hi := 0, n
			for lo < hi {
				mid := (lo + hi) / 2
				if cum[mid+1] < x {
					lo = mid + 1
				} else {
					hi = mid
				}
			}
			return lo
		}
		m2 := int(totalResidual / 2)
		for e := 0; e < m2; e++ {
			a, b := sample(), sample()
			if a == b {
				continue
			}
			el = append(el, graph.Edge{
				Src: graph.VertexID(perm[a]),
				Dst: graph.VertexID(perm[b]),
			})
		}
	}
	return el.Dedupe()
}

// ScaledFamily returns the profile-preserving scale-ups of a base graph:
// the Figure 4 experiment (original, x1 synthetic, and larger scales).
func ScaledFamily(base graph.EdgeList, scales []float64, seed int64) []graph.EdgeList {
	p := MeasureProfile(base)
	out := make([]graph.EdgeList, 0, len(scales))
	for i, s := range scales {
		out = append(out, BTER(p, s, seed+int64(i)))
	}
	return out
}

// SampleBatch models the paper's dynamic workload (§4.4): it removes a
// random sample of k edges and returns the deletion batch, the re-insert
// batch, and the remaining graph.
func SampleBatch(el graph.EdgeList, k int, seed int64) (deletions, insertions graph.Batch, remaining graph.EdgeList) {
	if k > len(el) {
		k = len(el)
	}
	rng := rand.New(rand.NewSource(seed))
	perm := rng.Perm(len(el))
	sampleIdx := map[int]bool{}
	for _, i := range perm[:k] {
		sampleIdx[i] = true
	}
	for i, e := range el {
		if sampleIdx[i] {
			deletions = append(deletions, graph.Change{Action: graph.Delete, Src: e.Src, Dst: e.Dst})
			insertions = append(insertions, graph.Change{Action: graph.Insert, Src: e.Src, Dst: e.Dst})
		} else {
			remaining = append(remaining, e)
		}
	}
	return deletions, insertions, remaining
}

// Batches splits an insertion stream for el into count batches of equal
// size, the shape of Figure 15's 100-batch experiment.
func Batches(el graph.EdgeList, count int) []graph.Batch {
	if count <= 0 {
		return nil
	}
	out := make([]graph.Batch, 0, count)
	per := (len(el) + count - 1) / count
	for i := 0; i < len(el); i += per {
		end := i + per
		if end > len(el) {
			end = len(el)
		}
		out = append(out, el[i:end].Changes())
	}
	return out
}

// Stream replays an edge list as a change stream through fn, the
// "extended A-BTER to stream edge updates" pathway (§4.4). It stops on
// the first error.
func Stream(el graph.EdgeList, fn func(graph.Change) error) error {
	for _, e := range el {
		if err := fn(graph.Change{Action: graph.Insert, Src: e.Src, Dst: e.Dst}); err != nil {
			return err
		}
	}
	return nil
}
