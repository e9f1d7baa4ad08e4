package sketch

import (
	"math"
	"math/bits"
	"math/rand"
	"slices"
	"testing"
)

// denseMerge is the reference MergeDelta must equal: every cell of the
// dense delta d added into s, saturating, and each judged from its old value
// under the threshold at the old total to its new value under the threshold
// at the new total.
func denseMerge(s, d *Sketch, threshold func(uint64) uint64, maxReplicas int) (crossed bool) {
	tBefore, tAfter := threshold(s.count), threshold(s.count+d.count)
	for r, row := range s.rows {
		for i, old := range row {
			v := min(uint64(old)+uint64(d.rows[r][i]), math.MaxUint32)
			row[i] = uint32(v)
			if Replicas(uint64(old), tBefore, maxReplicas) != Replicas(v, tAfter, maxReplicas) {
				crossed = true
			}
		}
	}
	s.count += d.count
	s.bound = slices.Max(s.rows[0])
	return crossed
}

// drawCount is an increment: mostly one to three, sometimes large, and now
// and then enough to saturate a cell outright.
func drawCount(rng *rand.Rand) uint32 {
	switch x := rng.Intn(100); {
	case x < 80:
		return uint32(1 + rng.Intn(3))
	case x < 97:
		return uint32(1 + rng.Intn(1<<uint(4+rng.Intn(24))))
	default:
		return math.MaxUint32 - uint32(rng.Intn(4))
	}
}

// TestDeltaMergeMatchesDenseReference: for random shapes (some not a
// multiple of 64 cells), base sketches, delta keys with saturating counts,
// fixed and load-derived thresholds over 1-4 members, a Delta holds the
// cells of a Sketch fed the same AddN calls, and merging its encoding
// leaves exactly the cells, Count, Bound and crossing verdict of the dense
// reference merge. The cases must include crossings that only a cell the
// delta left alone decides — the threshold moved under it.
func TestDeltaMergeMatchesDenseReference(t *testing.T) {
	const cases, maxReplicas = 4000, 4
	rng := rand.New(rand.NewSource(42))
	var crossings, untouchedDecided, moving int
	for c := 0; c < cases; c++ {
		w, d := []int{8, 16, 64, 100}[rng.Intn(4)], 1+rng.Intn(4)
		keys := uint64(4 + rng.Intn(200))
		members := uint64(1 + rng.Intn(4))
		threshold := byLoad(members)
		if rng.Intn(2) == 0 {
			threshold = fixed(uint64(2 + rng.Intn(64)))
		}
		base := New(w, d)
		for i, n := 0, rng.Intn(300); i < n; i++ {
			base.AddN(rng.Uint64()%keys, drawCount(rng))
		}
		delta, dense := NewDelta(w, d), New(w, d)
		for i, n := 0, rng.Intn(40); i < n; i++ {
			k, n := rng.Uint64()%keys, drawCount(rng)
			delta.AddN(k, n)
			dense.AddN(k, n)
		}
		if !slices.Equal(delta.cells, slices.Concat(dense.rows...)) || delta.Count() != dense.Count() {
			t.Fatalf("case %d: a Delta and a Sketch fed the same adds hold different cells", c)
		}
		data := delta.AppendBinary(nil)
		if len(data) != delta.SizeBytes() {
			t.Fatalf("case %d: encoded %d bytes, SizeBytes says %d", c, len(data), delta.SizeBytes())
		}

		want, got := base.Clone(), base.Clone()
		wantCrossed := denseMerge(want, dense, threshold, maxReplicas)
		crossed, err := got.MergeDelta(data, threshold, maxReplicas)
		if err != nil {
			t.Fatalf("case %d: %v", c, err)
		}
		if crossed != wantCrossed {
			t.Fatalf("case %d: MergeDelta crossed=%v, the dense merge %v", c, crossed, wantCrossed)
		}
		if !slices.EqualFunc(got.rows, want.rows, slices.Equal) || got.Count() != want.Count() || got.Bound() != want.Bound() {
			t.Fatalf("case %d: MergeDelta left other cells, count or bound than the dense merge", c)
		}

		tBefore, tAfter := threshold(base.Count()), threshold(got.Count())
		if tBefore != tAfter {
			moving++
		}
		if wantCrossed {
			crossings++
			touchedCrossed := false
			for r := range base.rows {
				for i := range base.rows[r] {
					if delta.marks[(r*w+i)/64]>>((r*w+i)%64)&1 == 1 &&
						Replicas(uint64(base.rows[r][i]), tBefore, maxReplicas) != Replicas(uint64(got.rows[r][i]), tAfter, maxReplicas) {
						touchedCrossed = true
					}
				}
			}
			if !touchedCrossed {
				untouchedDecided++
			}
		}
	}
	t.Logf("%d cases: %d crossings, %d decided by untouched cells, %d moving the threshold",
		cases, crossings, untouchedDecided, moving)
	if crossings == 0 || crossings == cases || untouchedDecided == 0 || moving == 0 {
		t.Fatal("the cases need crossings, clean merges, moved thresholds and crossings only untouched cells decide")
	}
}

// TestDeltaCostsTouchedCells: a delta's encoding is the header, the bitmap
// and one value per touched cell; Reset empties it — every cell zero, nothing
// marked — so the next batch encodes as on a fresh delta.
func TestDeltaCostsTouchedCells(t *testing.T) {
	const w, d = 4096, 4
	words := (w*d + 63) / 64
	delta := NewDelta(w, d)
	if got := len(delta.AppendBinary(nil)); got != 16+8*words {
		t.Fatalf("an empty delta encodes in %d bytes, want %d", got, 16+8*words)
	}
	for k := uint64(0); k < 64; k++ {
		delta.Add(k)
	}
	touched := 0
	for _, m := range delta.marks {
		touched += bits.OnesCount64(m)
	}
	if touched > 64*d || len(delta.AppendBinary(nil)) != 16+8*words+4*touched {
		t.Fatalf("64 keys touched %d cells and encode in %d bytes", touched, len(delta.AppendBinary(nil)))
	}
	delta.Reset()
	if delta.Count() != 0 || slices.Max(delta.cells) != 0 || slices.Max(delta.marks) != 0 || delta.SizeBytes() != 16+8*words {
		t.Fatal("Reset left cells, marks or a count behind")
	}
	fresh := NewDelta(w, d)
	for k := uint64(100); k < 110; k++ {
		delta.AddN(k, 3)
		fresh.AddN(k, 3)
	}
	if !slices.Equal(delta.AppendBinary(nil), fresh.AppendBinary(nil)) {
		t.Fatal("a reset delta encodes other bytes than a fresh one fed the same adds")
	}
}

// BenchmarkMergeDelta merges one 64-key delta into a sketch of the default
// shape under a load-derived threshold: the coordinator's cost per agent per
// seal of a small batch.
func BenchmarkMergeDelta(b *testing.B) {
	const w, d = 4096, 4
	s, delta := New(w, d), NewDelta(w, d)
	for k := uint64(0); k < 100000; k++ {
		s.Add(k % 20000)
	}
	for k := uint64(0); k < 64; k++ {
		delta.Add(k * 7919)
	}
	data := delta.AppendBinary(nil)
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = s.MergeDelta(data, byLoad(4), 8)
	}
}
