package agent

import (
	"math/bits"
	"unsafe"

	"elga/internal/algorithm"
	"elga/internal/graph"
)

// fib is the 64-bit Fibonacci multiplier (the route table's hash): the top
// bits of v*fib spread consecutive vertex IDs across the slots.
const fib = 0x9e3779b97f4a7c15

// aggSlot is one inline table cell (24 B). A slot whose gen differs from
// its table's is empty.
type aggSlot struct {
	key graph.VertexID
	agg algorithm.Word
	gen uint32
}

// aggTable maps vertices to words: power-of-two slots probed linearly from a
// multiply-shift of the key, never more than half full, grown by doubling
// from 64. order lists the occupied slots as they were inserted, so a walk
// costs O(entries) however large the table once grew, and reset is O(1): it
// moves the table to a generation no slot carries.
//
// It is the scratch that folds an outgoing batch by target (foldByTarget)
// and that lays out a dense plan's targets member by member (buildDense).
type aggTable struct {
	slots []aggSlot
	order []uint32
	shift uint8
	gen   uint32
	peak  int // the most entries it held since the last trim (spent)
}

// put returns v's slot, inserting an empty entry (fresh) if v has none.
func (t *aggTable) put(v graph.VertexID) (s *aggSlot, fresh bool) {
	if 2*(len(t.order)+1) > len(t.slots) {
		t.grow()
	}
	mask := uint64(len(t.slots) - 1)
	for i := (uint64(v) * fib) >> t.shift; ; i = (i + 1) & mask {
		s = &t.slots[i]
		if s.gen != t.gen {
			*s = aggSlot{key: v, gen: t.gen}
			t.order = append(t.order, uint32(i))
			return s, true
		}
		if s.key == v {
			return s, false
		}
	}
}

// reset empties the table, keeping its capacity.
func (t *aggTable) reset() {
	t.peak = max(t.peak, len(t.order))
	t.order = t.order[:0]
	if t.gen++; t.gen == 0 {
		// Generation wrapped: slots stamped 2^32 resets ago would read as
		// occupied again.
		clear(t.slots)
		t.gen = 1
	}
}

// spent reports whether the slots are past what the ended run held in them
// (keepScratch), and starts the next run's count.
func (t *aggTable) spent() bool {
	used := max(t.peak, len(t.order))
	t.peak = 0
	return !keepScratch(len(t.slots), int(unsafe.Sizeof(aggSlot{})), used)
}

// grow doubles the slots and re-inserts the entries in order.
func (t *aggTable) grow() {
	old, order := t.slots, t.order
	n := 2 * len(old)
	if n == 0 {
		n, t.gen = 64, 1
	}
	t.shift = uint8(64 - bits.TrailingZeros(uint(n)))
	t.slots = make([]aggSlot, n)
	t.order = make([]uint32, 0, n/2)
	mask := uint64(n - 1)
	for _, oi := range order {
		s := old[oi]
		i := (uint64(s.key) * fib) >> t.shift
		for t.slots[i].gen == t.gen {
			i = (i + 1) & mask
		}
		t.slots[i] = s
		t.order = append(t.order, uint32(i))
	}
}
