// Package sketch implements the count-min sketch ElGA uses for degree
// estimation (paper §2.4, §3.3.1).
//
// In ElGA any decision that would require global knowledge of the graph —
// principally "how high-degree is vertex u, and across how many agents
// should its edges be split?" — is answered from a small, fixed-size
// count-min sketch that is updated as edges stream in and broadcast through
// the directory system. The sketch only ever overestimates a degree
// (additive error ≤ εm with probability 1−δ for width ⌈e/ε⌉ and depth
// ⌈ln 1/δ⌉), which is safe for replication decisions: a vertex may be
// replicated slightly too eagerly, never too late.
package sketch

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"

	"elga/internal/hashing"
)

// DefaultWidth matches the paper's production setting discussion: a width
// of 2^18 with depth 8 bounds the error on a 100-billion-edge stream below
// a 2-million replication threshold. Scaled-down experiments override it.
const DefaultWidth = 1 << 18

// DefaultDepth is the paper's depth d = 8 (≈ 99.97% confidence).
const DefaultDepth = 8

// Sketch is an add-only count-min sketch over uint64 keys.
//
// A Sketch is not safe for concurrent use; in ElGA's shared-nothing design
// each entity owns its sketch and exchanges copies by message.
type Sketch struct {
	grid
	rows  [][]uint32
	count uint64 // total increments applied (m in the error bound)
	// bound is the largest cell of row 0. Every Estimate is a minimum
	// over rows, row 0 included, so none exceeds it.
	bound uint32
}

// New creates a sketch with the given width and depth. Width and depth
// must be positive.
func New(width, depth int) *Sketch {
	s := &Sketch{grid: newGrid(width, depth), rows: make([][]uint32, depth)}
	for i := range s.rows {
		s.rows[i] = make([]uint32, width)
	}
	return s
}

// grid is what a Sketch and a Delta of one shape share: the dimensions and
// the per-row hash seeds, which derive from the row index and so never
// travel. Both place a key through index, so they cannot disagree about its
// cells.
type grid struct {
	width uint32
	depth uint32
	seeds []uint64 // one per row
}

func newGrid(width, depth int) grid {
	if width <= 0 || depth <= 0 {
		panic(fmt.Sprintf("sketch: invalid dimensions %dx%d", width, depth))
	}
	g := grid{width: uint32(width), depth: uint32(depth), seeds: make([]uint64, depth)}
	for i := range g.seeds {
		g.seeds[i] = hashing.Wang(uint64(i)*0x9e3779b97f4a7c15 + 0x1234567)
	}
	return g
}

// index is the column key counts in on row.
func (g *grid) index(row int, key uint64) int {
	return int(uint32(hashing.Combine(g.seeds[row], key)) % g.width)
}

// addSat is c + n, saturating at MaxUint32 instead of wrapping: a wrapped
// counter could under-estimate, violating the one-sided error guarantee.
func addSat(c, n uint32) uint32 {
	if c > math.MaxUint32-n {
		return math.MaxUint32
	}
	return c + n
}

// NewForError sizes a sketch for additive error ε·m with failure
// probability δ: width ⌈e/ε⌉, depth ⌈ln(1/δ)⌉.
func NewForError(epsilon, delta float64) *Sketch {
	if epsilon <= 0 || epsilon >= 1 || delta <= 0 || delta >= 1 {
		panic("sketch: epsilon and delta must be in (0,1)")
	}
	w := int(math.Ceil(math.E / epsilon))
	d := int(math.Ceil(math.Log(1 / delta)))
	if d < 1 {
		d = 1
	}
	return New(w, d)
}

// Width returns the row width.
func (s *Sketch) Width() int { return int(s.width) }

// Depth returns the number of rows.
func (s *Sketch) Depth() int { return int(s.depth) }

// Count returns the total number of increments applied (m in ε·m).
func (s *Sketch) Count() uint64 { return s.count }

// Bound returns an upper bound on every Estimate: the largest cell of row
// 0. A replica policy can answer "one replica" for every key at once while
// the bound is under its threshold.
func (s *Sketch) Bound() uint64 { return uint64(s.bound) }

func (s *Sketch) cell(row int, key uint64) *uint32 {
	return &s.rows[row][s.index(row, key)]
}

// Add increments key's count by one in every row.
func (s *Sketch) Add(key uint64) { s.AddN(key, 1) }

// AddN increments key's count by n in every row. Count-min sketches are
// one-directional (add only); ElGA never decrements on edge deletion, which
// keeps the estimate an upper bound on the all-time degree.
func (s *Sketch) AddN(key uint64, n uint32) {
	for row := 0; row < int(s.depth); row++ {
		c := s.cell(row, key)
		*c = addSat(*c, n)
		if row == 0 {
			s.bound = max(s.bound, *c)
		}
	}
	s.count += uint64(n)
}

// Estimate returns the count-min estimate for key: the minimum across rows,
// which satisfies true ≤ estimate ≤ true + ε·m w.h.p.
func (s *Sketch) Estimate(key uint64) uint64 {
	min := uint32(math.MaxUint32)
	for row := 0; row < int(s.depth); row++ {
		if c := *s.cell(row, key); c < min {
			min = c
		}
	}
	return uint64(min)
}

// Clone returns a deep copy.
func (s *Sketch) Clone() *Sketch {
	c := New(int(s.width), int(s.depth))
	for r := range s.rows {
		copy(c.rows[r], s.rows[r])
	}
	c.count = s.count
	c.bound = s.bound
	return c
}

// Reset zeroes every cell and the total count.
func (s *Sketch) Reset() {
	for r := range s.rows {
		row := s.rows[r]
		for i := range row {
			row[i] = 0
		}
	}
	s.count = 0
	s.bound = 0
}

// SizeBytes returns the serialized size, the quantity the paper's §3.3.1
// sizes against the directory broadcast budget (8 MB at 2^18×8).
func (s *Sketch) SizeBytes() int {
	return 16 + 4*int(s.width)*int(s.depth)
}

// MarshalBinary encodes the sketch: width, depth, count, then rows
// in row-major order, all little-endian. Row seeds are derived from the
// row index so they are not transmitted.
func (s *Sketch) MarshalBinary() ([]byte, error) {
	return s.AppendBinary(make([]byte, 0, s.SizeBytes())), nil
}

// AppendBinary appends the MarshalBinary encoding to dst, so a caller that
// re-encodes the same sketch repeatedly can reuse one buffer.
func (s *Sketch) AppendBinary(dst []byte) []byte {
	dst = slices.Grow(dst, s.SizeBytes())
	dst = binary.LittleEndian.AppendUint32(dst, s.width)
	dst = binary.LittleEndian.AppendUint32(dst, s.depth)
	dst = binary.LittleEndian.AppendUint64(dst, s.count)
	for _, row := range s.rows {
		for _, c := range row {
			dst = binary.LittleEndian.AppendUint32(dst, c)
		}
	}
	return dst
}

// ErrCorrupt reports a malformed serialized sketch.
var ErrCorrupt = errors.New("sketch: corrupt encoding")

// decodeHeader reads the 16-byte header a Sketch and a Delta encoding both
// start with — width, depth, total count — and checks the dimensions are
// ones New accepts; the length is the caller's to check.
func decodeHeader(data []byte) (w, d uint32, count uint64, err error) {
	if len(data) < 16 {
		return 0, 0, 0, ErrCorrupt
	}
	w = binary.LittleEndian.Uint32(data[0:])
	d = binary.LittleEndian.Uint32(data[4:])
	if w == 0 || d == 0 || w > 1<<28 || d > 1024 {
		return 0, 0, 0, ErrCorrupt
	}
	return w, d, binary.LittleEndian.Uint64(data[8:]), nil
}

// UnmarshalBinary decodes a sketch produced by MarshalBinary, replacing
// the receiver's contents.
func (s *Sketch) UnmarshalBinary(data []byte) error {
	_, err := s.LoadEncoded(data, nil, 0)
	return err
}

// crossing judges the cells of a load or merge that takes the total from
// before to after, under a replica policy whose threshold may follow the
// total (nil judges nothing). moved reports whether a cell that went from a
// to b changed bucket, each value judged under the threshold at its own
// total; every, whether cells left alone need judging too — the threshold
// moved. A key's count, Replicas of the minimum over its cells, is the
// minimum of its cells' buckets for a fixed threshold, so when no cell
// moved no key did, whatever the two thresholds.
func crossing(threshold func(total uint64) uint64, maxReplicas int, before, after uint64) (moved func(a, b uint64) bool, every bool) {
	if threshold == nil {
		return func(uint64, uint64) bool { return false }, false
	}
	tb, ta := threshold(before), threshold(after)
	return func(a, b uint64) bool {
		return Replicas(a, tb, maxReplicas) != Replicas(b, ta, maxReplicas)
	}, tb != ta
}

// LoadEncoded is UnmarshalBinary that reuses the receiver's storage when
// the dimensions match and reports whether any cell landed in a different
// replica bucket than the value it replaced: the old value judged under
// threshold(old total), the new one under threshold(new total), each
// through Replicas(·, ·, maxReplicas). A nil threshold skips the
// comparison. A dimension change always counts as a crossing. Malformed
// data errors before the receiver is touched.
func (s *Sketch) LoadEncoded(data []byte, threshold func(total uint64) uint64, maxReplicas int) (crossed bool, err error) {
	w, d, cnt, err := decodeHeader(data)
	if err != nil {
		return false, err
	}
	if len(data) != 16+4*int(w)*int(d) {
		return false, ErrCorrupt
	}
	if w != s.width || d != s.depth {
		*s = *New(int(w), int(d))
		crossed = true
	}
	moved, every := crossing(threshold, maxReplicas, s.count, cnt)
	off := 16
	for _, row := range s.rows {
		for i, old := range row {
			v := binary.LittleEndian.Uint32(data[off:])
			off += 4
			if v == old && !every {
				continue
			}
			row[i] = v
			if !crossed && moved(uint64(old), uint64(v)) {
				crossed = true
			}
		}
	}
	// A load may lower cells, so the bound is taken afresh: one pass over
	// row 0 measured cheaper than a max folded into the walk above.
	s.count, s.bound = cnt, slices.Max(s.rows[0])
	return crossed, nil
}

// Replicas converts a degree estimate into a replica count given the
// replication threshold: vertices estimated below the threshold get one
// owner; above it, one extra replica per threshold-multiple, capped at max.
// This is the policy ElGA's Figure 3 lookup applies before the second hash.
func Replicas(estimate, threshold uint64, maxReplicas int) int {
	if threshold == 0 || estimate < threshold || maxReplicas <= 1 {
		return 1
	}
	k := int(estimate / threshold)
	if estimate%threshold != 0 {
		k++
	}
	if k < 1 {
		k = 1
	}
	if k > maxReplicas {
		k = maxReplicas
	}
	return k
}
