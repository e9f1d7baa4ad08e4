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

const (
	// slotEager: agg holds an aggregate folded under the installed run.
	slotEager uint8 = 1 << iota
	// slotDead: the entry was killed (its mail was re-routed away). The slot
	// keeps its key so probe runs through it stay intact.
	slotDead
)

// aggSlot is one inline table cell (24 B). A slot whose gen differs from
// its table's is empty.
type aggSlot struct {
	key   graph.VertexID
	agg   algorithm.Word
	gen   uint32
	flags uint8
}

// aggTable maps vertices to aggregates: power-of-two slots probed linearly
// from a multiply-shift of the key, never more than half full, grown by
// doubling from 64. order lists the occupied slots as they were inserted,
// so a walk costs O(entries) however large the table once grew, and reset
// is O(1): it moves the table to a generation no slot carries.
//
// It is the agent's per-step mailbox (key → aggregate of the messages for
// that vertex) and the scratch that folds an outgoing batch by target.
// put, kill and reset belong to the event loop; get and fold only read, so
// phase workers call them concurrently.
type aggTable struct {
	slots []aggSlot
	order []uint32
	shift uint8
	gen   uint32
	live  int // entries put and not killed
	peak  int // the most entries it held since the last trim (spent)
	// raw buffers aggregates delivered while no run was installed (peer
	// pushes racing TAlgoStart, mid-migration re-routes), which only a
	// program can merge; fold does so at consumption. Nil while empty.
	raw map[graph.VertexID][]algorithm.Word
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
			t.live++
			return s, true
		}
		if s.key == v {
			if s.flags&slotDead != 0 {
				// Re-inserted after a kill: the entry starts over where it
				// first stood in the order.
				s.flags = 0
				t.live++
				return s, true
			}
			return s, false
		}
	}
}

// get returns v's live slot, or nil. A nil table holds nothing.
func (t *aggTable) get(v graph.VertexID) *aggSlot {
	if t == nil || len(t.slots) == 0 {
		return nil
	}
	mask := uint64(len(t.slots) - 1)
	for i := (uint64(v) * fib) >> t.shift; ; i = (i + 1) & mask {
		s := &t.slots[i]
		if s.gen != t.gen {
			return nil
		}
		if s.key == v {
			if s.flags&slotDead != 0 {
				return nil
			}
			return s
		}
	}
}

// kill removes s's entry, leaving the slot in place as a tombstone.
func (t *aggTable) kill(s *aggSlot) {
	s.flags = slotDead
	t.live--
	if t.raw != nil {
		delete(t.raw, s.key)
	}
}

// each calls fn for every live entry in insertion order. fn may kill.
func (t *aggTable) each(fn func(s *aggSlot)) {
	if t == nil {
		return
	}
	for _, i := range t.order {
		if s := &t.slots[i]; s.flags&slotDead == 0 {
			fn(s)
		}
	}
}

// reset empties the table, keeping its capacity.
func (t *aggTable) reset() {
	t.peak = max(t.peak, len(t.order))
	t.order = t.order[:0]
	t.live = 0
	t.raw = nil
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

// grow doubles the slots and re-inserts the entries in order, tombstones
// included: a key keeps the position of its first put.
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

// gather folds one message produced here into v's aggregate.
func (t *aggTable) gather(prog algorithm.Program, v graph.VertexID, msg algorithm.Word) {
	s := t.eager(prog, v)
	s.agg = prog.Gather(s.agg, msg)
}

// eager returns v's slot for gathering into, its aggregate ZeroAgg if fresh.
func (t *aggTable) eager(prog algorithm.Program, v graph.VertexID) *aggSlot {
	s, _ := t.put(v)
	if s.flags&slotEager == 0 {
		s.flags |= slotEager
		s.agg = prog.ZeroAgg()
	}
	return s
}

// merge combines an aggregate some sender already gathered into the entry
// put returned. With no program (no run installed yet) the aggregate waits in
// the raw buffer.
func (t *aggTable) merge(prog algorithm.Program, s *aggSlot, agg algorithm.Word) {
	switch {
	case prog == nil:
		if t.raw == nil {
			t.raw = make(map[graph.VertexID][]algorithm.Word)
		}
		t.raw[s.key] = append(t.raw[s.key], agg)
	case s.flags&slotEager == 0:
		s.flags |= slotEager
		s.agg = agg
	default:
		s.agg = prog.MergeAgg(s.agg, agg)
	}
}

// fold returns the aggregate of s's entry under prog: what was combined
// while a run was installed, merged with whatever buffered raw before.
func (t *aggTable) fold(prog algorithm.Program, s *aggSlot) algorithm.Word {
	agg := prog.ZeroAgg()
	if s.flags&slotEager != 0 {
		agg = s.agg
	}
	if t.raw != nil {
		for _, r := range t.raw[s.key] {
			agg = prog.MergeAgg(agg, r)
		}
	}
	return agg
}
