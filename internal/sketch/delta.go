package sketch

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"slices"
)

// Delta is the increments a sketch has received since they were last
// shipped. An agent adds each endpoint it inserts to one and, at a batch
// boundary, sends the coordinator its encoding, which Sketch.MergeDelta
// folds into the coordinator's sketch (paper §3.3.1). A Delta marks every
// cell it touches, so encoding, merging and resetting one cost the cells a
// batch touched plus one bit a cell, not the sketch's size.
//
// The encoding is, little-endian: width u32, depth u32, total count u64,
// ⌈width·depth/64⌉ bitmap words u64 — bit j of the row-major cell order set
// when cell j was touched — then one u32 value per set bit, in cell order.
type Delta struct {
	grid
	cells  []uint32 // row-major: row r's column i is cells[r*width+i]
	marks  []uint64 // bit j set: cells[j] was touched since the last Reset
	marked int      // set bits in marks
	count  uint64
}

// NewDelta creates an empty delta for sketches of the given width and
// depth. Width and depth must be positive.
func NewDelta(width, depth int) *Delta {
	g := newGrid(width, depth)
	n := width * depth
	return &Delta{grid: g, cells: make([]uint32, n), marks: make([]uint64, (n+63)/64)}
}

// Count returns the total of the increments added since the last Reset.
func (d *Delta) Count() uint64 { return d.count }

// Add increments key's count by one in every row.
func (d *Delta) Add(key uint64) { d.AddN(key, 1) }

// AddN increments key's count by n in every row, saturating as Sketch.AddN
// does, and marks the cells it touched.
func (d *Delta) AddN(key uint64, n uint32) {
	for row := 0; row < int(d.depth); row++ {
		j := row*int(d.width) + d.index(row, key)
		if bit := uint64(1) << (j % 64); d.marks[j/64]&bit == 0 {
			d.marks[j/64] |= bit
			d.marked++
		}
		d.cells[j] = addSat(d.cells[j], n)
	}
	d.count += uint64(n)
}

// SizeBytes returns the length of the encoding AppendBinary would append.
func (d *Delta) SizeBytes() int {
	return 16 + 8*len(d.marks) + 4*d.marked
}

// AppendBinary appends the delta's encoding to dst.
func (d *Delta) AppendBinary(dst []byte) []byte {
	dst = slices.Grow(dst, d.SizeBytes())
	dst = binary.LittleEndian.AppendUint32(dst, d.width)
	dst = binary.LittleEndian.AppendUint32(dst, d.depth)
	dst = binary.LittleEndian.AppendUint64(dst, d.count)
	for _, m := range d.marks {
		dst = binary.LittleEndian.AppendUint64(dst, m)
	}
	for w, m := range d.marks {
		for ; m != 0; m &= m - 1 {
			dst = binary.LittleEndian.AppendUint32(dst, d.cells[64*w+bits.TrailingZeros64(m)])
		}
	}
	return dst
}

// Reset empties the delta, clearing only the cells it marked.
func (d *Delta) Reset() {
	for w, m := range d.marks {
		for ; m != 0; m &= m - 1 {
			d.cells[64*w+bits.TrailingZeros64(m)] = 0
		}
		d.marks[w] = 0
	}
	d.marked, d.count = 0, 0
}

// MergeDelta adds a Delta's encoding into s cell-wise, saturating: the
// coordinator folds each agent's batch increments in with it. The delta
// must have s's dimensions (and therefore its row seeds); the new total is
// the sum of the two. It reports whether the merge moved any cell into a
// different replica bucket, judged as LoadEncoded judges a load: each cell
// the delta touched from its old value to its new one and, when the
// threshold moves with the total, every other cell too, at its unchanged
// value. Malformed or mismatched data errors before the receiver is
// touched: a length other than the header, the bitmap and one value per
// set bit, or a bit set past the last cell.
func (s *Sketch) MergeDelta(data []byte, threshold func(total uint64) uint64, maxReplicas int) (crossed bool, err error) {
	w, d, cnt, err := decodeHeader(data)
	if err != nil {
		return false, err
	}
	if w != s.width || d != s.depth {
		return false, fmt.Errorf("sketch: merge dimension mismatch %dx%d vs %dx%d",
			s.width, s.depth, w, d)
	}
	cells := int(w) * int(d)
	words := (cells + 63) / 64
	if len(data) < 16+8*words {
		return false, ErrCorrupt
	}
	marks, vals := data[16:16+8*words], data[16+8*words:]
	set := 0
	for i := 0; i < words; i++ {
		set += bits.OnesCount64(binary.LittleEndian.Uint64(marks[8*i:]))
	}
	if tail := cells % 64; tail != 0 && binary.LittleEndian.Uint64(marks[8*(words-1):])>>tail != 0 {
		return false, ErrCorrupt
	}
	if len(vals) != 4*set {
		return false, ErrCorrupt
	}

	moved, every := crossing(threshold, maxReplicas, s.count, s.count+cnt)
	for i := 0; i < words; i++ {
		for m := binary.LittleEndian.Uint64(marks[8*i:]); m != 0; m &= m - 1 {
			j := 64*i + bits.TrailingZeros64(m)
			c := &s.rows[j/int(w)][j%int(w)]
			old := *c
			*c = addSat(old, binary.LittleEndian.Uint32(vals))
			vals = vals[4:]
			if j < int(w) { // cells only grow here: the changed ones raise the bound
				s.bound = max(s.bound, *c)
			}
			if !crossed && moved(uint64(old), uint64(*c)) {
				crossed = true
			}
		}
	}
	// The threshold moved, so a cell the delta left alone may change bucket
	// at its old value: judge those too.
	for r := 0; every && !crossed && r < len(s.rows); r++ {
		for i, v := range s.rows[r] {
			if j := r*int(w) + i; marks[j/8]>>(j%8)&1 == 0 && moved(uint64(v), uint64(v)) {
				crossed = true
				break
			}
		}
	}
	s.count += cnt
	return crossed, nil
}
