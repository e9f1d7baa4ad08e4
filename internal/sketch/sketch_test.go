package sketch

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestNewDimensions(t *testing.T) {
	s := New(128, 4)
	if s.Width() != 128 || s.Depth() != 4 {
		t.Fatalf("got %dx%d, want 128x4", s.Width(), s.Depth())
	}
	if s.Count() != 0 {
		t.Fatalf("fresh sketch count = %d", s.Count())
	}
}

func TestNewPanicsOnBadDims(t *testing.T) {
	for _, dims := range [][2]int{{0, 4}, {4, 0}, {-1, 2}, {2, -1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%d,%d) did not panic", dims[0], dims[1])
				}
			}()
			New(dims[0], dims[1])
		}()
	}
}

func TestNewForErrorSizing(t *testing.T) {
	s := NewForError(0.01, 0.01)
	if w := s.Width(); w != int(math.Ceil(math.E/0.01)) {
		t.Errorf("width = %d", w)
	}
	if d := s.Depth(); d != int(math.Ceil(math.Log(100))) {
		t.Errorf("depth = %d", d)
	}
}

func TestEstimateNeverUnderestimates(t *testing.T) {
	s := New(64, 4) // deliberately tiny: force collisions
	truth := map[uint64]uint64{}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 5000; i++ {
		k := uint64(rng.Intn(300))
		s.Add(k)
		truth[k]++
	}
	for k, want := range truth {
		if got := s.Estimate(k); got < want {
			t.Fatalf("Estimate(%d) = %d < true count %d (one-sided bound violated)", k, got, want)
		}
	}
	if s.Count() != 5000 {
		t.Errorf("Count = %d, want 5000", s.Count())
	}
}

func TestEstimateErrorBound(t *testing.T) {
	// With width ⌈e/ε⌉ the additive error should be ≤ ε·m w.h.p.
	const eps = 0.01
	s := NewForError(eps, 0.001)
	const m = 20000
	rng := rand.New(rand.NewSource(7))
	truth := map[uint64]uint64{}
	for i := 0; i < m; i++ {
		k := uint64(rng.Intn(4000))
		s.Add(k)
		truth[k]++
	}
	bound := uint64(eps * m)
	bad := 0
	for k, want := range truth {
		if s.Estimate(k) > want+bound {
			bad++
		}
	}
	if bad > len(truth)/100 {
		t.Errorf("%d/%d keys exceed the εm error bound", bad, len(truth))
	}
}

func TestAddNSaturates(t *testing.T) {
	s := New(8, 2)
	s.AddN(1, math.MaxUint32)
	s.AddN(1, 10)
	if got := s.Estimate(1); got != math.MaxUint32 {
		t.Errorf("expected saturation at MaxUint32, got %d", got)
	}
}

// never is a threshold under which nothing splits, so nothing ever crosses.
func never(uint64) uint64 { return 0 }

// fixed is a threshold that does not depend on the sketch total.
func fixed(t uint64) func(uint64) uint64 { return func(uint64) uint64 { return t } }

// mergeInto merges d into a through d's encoding, the only merge there is.
func mergeInto(a *Sketch, d *Delta, threshold func(uint64) uint64, maxReplicas int) (bool, error) {
	return a.MergeDelta(d.AppendBinary(nil), threshold, maxReplicas)
}

func TestMerge(t *testing.T) {
	a, b := New(256, 4), NewDelta(256, 4)
	for i := uint64(0); i < 100; i++ {
		a.Add(i)
		b.AddN(i, 2)
	}
	if _, err := mergeInto(a, b, never, 8); err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 100; i++ {
		if got := a.Estimate(i); got < 3 {
			t.Fatalf("after merge Estimate(%d) = %d, want >= 3", i, got)
		}
	}
	if a.Count() != 300 {
		t.Errorf("merged count = %d, want 300", a.Count())
	}
}

func TestMergeDimensionMismatch(t *testing.T) {
	if _, err := mergeInto(New(8, 2), NewDelta(16, 2), never, 8); err == nil {
		t.Error("expected error for width mismatch")
	}
	if _, err := mergeInto(New(8, 2), NewDelta(8, 3), never, 8); err == nil {
		t.Error("expected error for depth mismatch")
	}
}

// TestMergeDeltaMalformed: a corrupt delta errors, never panics, and leaves
// the receiver as it was — every truncation, an extra byte, a header of
// another shape, a bitmap bit past the last cell, and a bitmap whose set
// bits disagree with the values that follow. LoadEncoded refuses a corrupt
// sketch encoding the same way.
func TestMergeDeltaMalformed(t *testing.T) {
	s := New(8, 3) // 24 cells: one bitmap word, its top 40 bits past the end
	s.AddN(3, 7)
	d := NewDelta(8, 3)
	d.AddN(5, 2)
	d.AddN(6, 1)
	good := d.AppendBinary(nil)
	if _, err := s.Clone().MergeDelta(good, never, 8); err != nil {
		t.Fatalf("the well-formed delta: %v", err)
	}
	withMarks := func(mark func(uint64) uint64, extraVals int) []byte {
		b := append([]byte(nil), good...)
		binary.LittleEndian.PutUint64(b[16:], mark(binary.LittleEndian.Uint64(b[16:])))
		return append(b, make([]byte, 4*extraVals)...)
	}
	lowest := func(m uint64) uint64 { return m & -m }
	cases := map[string][]byte{
		"extra byte":          append(append([]byte(nil), good...), 0),
		"other shape":         NewDelta(16, 3).AppendBinary(nil),
		"stray bit":           withMarks(func(m uint64) uint64 { return m | 1<<30 }, 1),
		"bit without a value": withMarks(func(m uint64) uint64 { return m | lowest(^m) }, 0),
		"value without a bit": withMarks(func(m uint64) uint64 { return m &^ lowest(m) }, 0),
		"zero width":          {0, 0, 0, 0, 3, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0},
	}
	for n := range good {
		cases[fmt.Sprintf("truncated to %d", n)] = good[:n]
	}
	for name, data := range cases {
		before := s.Clone()
		if _, err := s.MergeDelta(data, byLoad(1), 8); err == nil {
			t.Errorf("%s: MergeDelta accepted malformed data", name)
		}
		if !slices.EqualFunc(s.rows, before.rows, slices.Equal) || s.Count() != before.Count() || s.Bound() != before.Bound() {
			t.Fatalf("%s: a rejected merge changed the receiver", name)
		}
	}
	dense, _ := s.MarshalBinary()
	for _, data := range [][]byte{
		nil, dense[:15], dense[:len(dense)-1], append(append([]byte(nil), dense...), 0),
		{0, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0},
	} {
		if _, err := s.LoadEncoded(data, never, 8); err == nil {
			t.Errorf("LoadEncoded(%d bytes) accepted malformed data", len(data))
		}
		if s.Estimate(3) != 7 || s.Count() != 7 {
			t.Fatalf("malformed data changed the receiver: estimate %d count %d", s.Estimate(3), s.Count())
		}
	}
}

// TestMergeDeltaSaturates: cells clamp at MaxUint32 like AddN.
func TestMergeDeltaSaturates(t *testing.T) {
	a, b := New(4, 1), NewDelta(4, 1)
	a.AddN(1, math.MaxUint32-1)
	b.AddN(1, 5)
	if _, err := mergeInto(a, b, never, 8); err != nil {
		t.Fatal(err)
	}
	if got := a.Estimate(1); got != math.MaxUint32 {
		t.Errorf("merged estimate %d, want saturation at MaxUint32", got)
	}
}

// TestLoadEncodedReusesStorage: a same-shape load replaces contents in
// place and reports crossings against what it replaced; a different shape
// reallocates and always counts as a crossing.
func TestLoadEncodedReusesStorage(t *testing.T) {
	src := New(16, 2)
	src.AddN(5, 9)
	data, _ := src.MarshalBinary()
	dst := New(16, 2)
	row := &dst.rows[0][0]
	if crossed, err := dst.LoadEncoded(data, fixed(10), 8); err != nil || crossed {
		t.Fatalf("sub-threshold load: crossed=%v err=%v", crossed, err)
	}
	if &dst.rows[0][0] != row || dst.Estimate(5) != 9 || dst.Count() != 9 {
		t.Fatalf("load did not reuse storage or lost contents: estimate %d", dst.Estimate(5))
	}
	src.AddN(5, 2) // 11: one past the threshold, so two replicas
	data, _ = src.MarshalBinary()
	if crossed, _ := dst.LoadEncoded(data, fixed(10), 8); !crossed {
		t.Fatal("load across the threshold reported no crossing")
	}
	if crossed, _ := dst.LoadEncoded(data, fixed(10), 8); crossed {
		t.Fatal("reloading identical contents reported a crossing")
	}
	wide := New(32, 2)
	data, _ = wide.MarshalBinary()
	if crossed, err := dst.LoadEncoded(data, fixed(10), 8); err != nil || !crossed || dst.Width() != 32 {
		t.Fatalf("reshape: crossed=%v err=%v width=%d", crossed, err, dst.Width())
	}
}

func TestCloneIndependent(t *testing.T) {
	a := New(16, 2)
	a.Add(5)
	c := a.Clone()
	a.AddN(5, 100)
	if c.Estimate(5) != 1 {
		t.Errorf("clone mutated with original: %d", c.Estimate(5))
	}
	if c.Count() != 1 {
		t.Errorf("clone count = %d", c.Count())
	}
}

func TestReset(t *testing.T) {
	s := New(16, 2)
	s.AddN(9, 42)
	s.Reset()
	if s.Estimate(9) != 0 || s.Count() != 0 {
		t.Error("Reset did not clear sketch")
	}
}

func TestMarshalRoundTrip(t *testing.T) {
	s := New(64, 3)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 1000; i++ {
		s.Add(uint64(rng.Intn(500)))
	}
	data, err := s.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if len(data) != s.SizeBytes() {
		t.Fatalf("encoded %d bytes, SizeBytes says %d", len(data), s.SizeBytes())
	}
	var got Sketch
	if err := got.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	if got.Count() != s.Count() || got.Width() != s.Width() || got.Depth() != s.Depth() {
		t.Fatal("header mismatch after round trip")
	}
	for k := uint64(0); k < 500; k++ {
		if got.Estimate(k) != s.Estimate(k) {
			t.Fatalf("Estimate(%d) differs after round trip", k)
		}
	}
}

func TestUnmarshalRejectsCorrupt(t *testing.T) {
	s := New(8, 2)
	data, _ := s.MarshalBinary()
	cases := [][]byte{
		nil,
		data[:10],
		data[:len(data)-1],
		append(append([]byte{}, data...), 0),
	}
	for i, c := range cases {
		var g Sketch
		if err := g.UnmarshalBinary(c); err == nil {
			t.Errorf("case %d: corrupt data accepted", i)
		}
	}
	// Zero width/depth header.
	bad := append([]byte{}, data...)
	bad[0], bad[1], bad[2], bad[3] = 0, 0, 0, 0
	var g Sketch
	if err := g.UnmarshalBinary(bad); err == nil {
		t.Error("zero-width header accepted")
	}
}

func TestSizeBytesMatchesPaperExample(t *testing.T) {
	// Paper §3.3.1: width 2^18, depth 8 fits in 8 MB.
	s := New(1<<18, 8)
	if sz := s.SizeBytes(); sz > 9<<20 {
		t.Errorf("2^18 x 8 sketch is %d bytes, paper says ~8 MB", sz)
	}
}

func TestReplicasPolicy(t *testing.T) {
	cases := []struct {
		est, thr uint64
		max      int
		want     int
	}{
		{0, 100, 8, 1},
		{99, 100, 8, 1},
		{100, 100, 8, 1},
		{101, 100, 8, 2},
		{250, 100, 8, 3},
		{1000, 100, 8, 8},   // capped
		{1000, 100, 1, 1},   // max 1 disables splitting
		{1000, 0, 8, 1},     // threshold 0 disables splitting
		{200, 100, 8, 2},    // exact multiple
		{10_000, 100, 4, 4}, // cap applies
	}
	for _, c := range cases {
		if got := Replicas(c.est, c.thr, c.max); got != c.want {
			t.Errorf("Replicas(%d,%d,%d) = %d, want %d", c.est, c.thr, c.max, got, c.want)
		}
	}
}

// Property: for any sequence of adds, estimate >= truth (monotone
// one-sided error) and merge(a,b) >= max of either estimate.
func TestOneSidedProperty(t *testing.T) {
	f := func(keys []uint16) bool {
		s := New(32, 3)
		truth := map[uint64]uint64{}
		for _, k := range keys {
			s.Add(uint64(k))
			truth[uint64(k)]++
		}
		for k, want := range truth {
			if s.Estimate(k) < want {
				return false
			}
		}
		return s.Count() == uint64(len(keys))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestMergeGEQComponentsProperty(t *testing.T) {
	f := func(ka, kb []uint8) bool {
		a, b, bc := New(16, 2), NewDelta(16, 2), New(16, 2)
		for _, k := range ka {
			a.Add(uint64(k))
		}
		for _, k := range kb {
			b.Add(uint64(k))
			bc.Add(uint64(k))
		}
		ac := a.Clone()
		if _, err := mergeInto(a, b, never, 8); err != nil {
			return false
		}
		for k := uint64(0); k < 256; k++ {
			if a.Estimate(k) < ac.Estimate(k) || a.Estimate(k) < bc.Estimate(k) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// byLoad is a threshold shaped like the configuration's load-derived one,
// scaled down: max(2, 2^⌊log2(total / members / 2)⌋).
func byLoad(members uint64) func(uint64) uint64 {
	return func(total uint64) uint64 {
		t := uint64(2)
		for 2*t <= total/members/2 {
			t *= 2
		}
		return t
	}
}

// replicaCounts is every key's replica count under s and a threshold at
// s's total, by brute force.
func replicaCounts(s *Sketch, keys int, threshold func(uint64) uint64, maxReplicas int) []int {
	out := make([]int, keys)
	for k := range out {
		out[k] = Replicas(s.Estimate(uint64(k)), threshold(s.Count()), maxReplicas)
	}
	return out
}

// TestMergeCrossingProperty is the contract the directory's clean seal and
// a router's kept route table rest on. For random base sketches, deltas and
// member counts, under a fixed threshold and under one that moves with the
// total: a merge — or a load of the merged bytes over the base — that
// reports no crossing leaves every key's replica count unchanged, checked
// key by key, and one that changes some key's count always reports a
// crossing.
func TestMergeCrossingProperty(t *testing.T) {
	const maxReplicas, keys = 4, 64
	var crossings, clean, cleanMoved int
	f := func(base, delta []uint8, members uint8, moving bool) bool {
		threshold := fixed(6)
		if moving {
			threshold = byLoad(1 + uint64(members%4))
		}
		a, d := New(16, 3), NewDelta(16, 3)
		for _, k := range base {
			a.Add(uint64(k % keys))
		}
		for _, k := range delta {
			d.Add(uint64(k % keys))
		}
		loaded := a.Clone()
		before := replicaCounts(a, keys, threshold, maxReplicas)
		tBefore := threshold(a.Count())
		crossed, err := mergeInto(a, d, threshold, maxReplicas)
		if err != nil {
			return false
		}
		data, _ := a.MarshalBinary()
		crossedLoad, err := loaded.LoadEncoded(data, threshold, maxReplicas)
		if err != nil || crossedLoad != crossed {
			return false // the same cells, judged the same way
		}
		changed := !slices.Equal(before, replicaCounts(a, keys, threshold, maxReplicas))
		switch {
		case crossed:
			crossings++
		case threshold(a.Count()) != tBefore:
			cleanMoved++
			fallthrough
		default:
			clean++
		}
		return !changed || crossed
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 4000}); err != nil {
		t.Error(err)
	}
	if crossings == 0 || clean == 0 || cleanMoved == 0 {
		t.Fatalf("property saw %d crossing merges, %d clean ones, %d of them moving the threshold; it needs all three",
			crossings, clean, cleanMoved)
	}
}

// TestDoublingDeltaCrossesNothing: a delta that doubles every cell doubles
// the total and, with it, a load-derived threshold; every cell keeps its
// bucket, so neither a merge nor a load may report a crossing, although
// every cell changed and the threshold moved.
func TestDoublingDeltaCrossesNothing(t *testing.T) {
	const maxReplicas, keys = 8, 32
	threshold := byLoad(1)
	feed := func(add func(key uint64, n uint32)) {
		for k := uint64(0); k < keys; k++ {
			add(k, uint32(1+k))
		}
		add(7, 700) // a few keys several thresholds up
		add(9, 1500)
	}
	s, doubling := New(64, 4), NewDelta(64, 4)
	feed(s.AddN)
	feed(doubling.AddN)
	before := replicaCounts(s, keys, threshold, maxReplicas)
	if slices.Max(before) < 2 {
		t.Fatal("test input: nothing is split")
	}
	routed := s.Clone()
	tBefore := threshold(s.Count())
	crossed, err := mergeInto(s, doubling, threshold, maxReplicas)
	if err != nil || crossed {
		t.Fatalf("doubling merge: crossed=%v err=%v", crossed, err)
	}
	if tAfter := threshold(s.Count()); tAfter != 2*tBefore {
		t.Fatalf("test input: threshold %d -> %d, want it doubled", tBefore, tAfter)
	}
	if after := replicaCounts(s, keys, threshold, maxReplicas); !slices.Equal(before, after) {
		t.Fatalf("replica counts moved: %v -> %v", before, after)
	}
	data, _ := s.MarshalBinary()
	if crossed, err := routed.LoadEncoded(data, threshold, maxReplicas); err != nil || crossed {
		t.Fatalf("doubling load: crossed=%v err=%v", crossed, err)
	}
	// Pushing one key just past the doubled threshold, without moving it
	// again, is a crossing.
	tNow, hub := threshold(s.Count()), NewDelta(64, 4)
	hub.AddN(7, uint32(tNow-s.Estimate(7)+1))
	if s.Estimate(7) >= tNow || threshold(s.Count()+hub.Count()) != tNow {
		t.Fatal("test input: the push moves the threshold or starts above it")
	}
	if crossed, _ := mergeInto(s, hub, threshold, maxReplicas); !crossed {
		t.Fatal("a delta that split a key further reported no crossing")
	}
}

func BenchmarkAdd(b *testing.B) {
	s := New(1<<14, 8)
	for i := 0; i < b.N; i++ {
		s.Add(uint64(i))
	}
}

func BenchmarkEstimate(b *testing.B) {
	s := New(1<<14, 8)
	for i := 0; i < 1<<16; i++ {
		s.Add(uint64(i))
	}
	b.ResetTimer()
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += s.Estimate(uint64(i))
	}
	benchSink = sink
}

var benchSink uint64

// FuzzMergeDelta feeds the two wire-facing decoders arbitrary bytes: they
// must error or succeed, never panic, and an error must leave the receiver
// untouched.
func FuzzMergeDelta(f *testing.F) {
	d := NewDelta(8, 2)
	d.AddN(3, 7)
	good := d.AppendBinary(nil)
	f.Add(good)
	f.Add(good[:len(good)-3])
	f.Add(append(good[:16:16], 0xff, 0xff, 0, 0, 0, 0, 0, 0))
	f.Add([]byte{8, 0, 0, 0, 2, 0, 0, 0})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0, 0, 0, 0, 0})
	src := New(8, 2)
	src.AddN(3, 7)
	dense, _ := src.MarshalBinary()
	f.Add(dense)
	f.Fuzz(func(t *testing.T, data []byte) {
		s := New(8, 2)
		s.AddN(5, 2)
		if _, err := s.MergeDelta(data, fixed(4), 8); err != nil && (s.Estimate(5) != 2 || s.Count() != 2 || s.Bound() != 2) {
			t.Fatal("a rejected merge changed the receiver")
		}
		s = New(8, 2)
		s.AddN(5, 2)
		if _, err := s.LoadEncoded(data, fixed(4), 8); err != nil && (s.Estimate(5) != 2 || s.Count() != 2) {
			t.Fatal("a rejected load changed the receiver")
		}
	})
}

// TestBoundTracksRowZero: through random adds, loads of smaller and larger
// sketches, merges, clones and resets, Bound is exactly the largest cell of
// row 0, and so at least every key's Estimate.
func TestBoundTracksRowZero(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	check := func(s *Sketch, step string) {
		t.Helper()
		if want := uint64(slices.Max(s.rows[0])); s.Bound() != want {
			t.Fatalf("%s: Bound = %d, largest row-0 cell %d", step, s.Bound(), want)
		}
		for key := uint64(0); key < 64; key++ {
			if e := s.Estimate(key); e > s.Bound() {
				t.Fatalf("%s: Estimate(%d) = %d over Bound %d", step, key, e, s.Bound())
			}
		}
	}
	feed := func(add func(key uint64, n uint32), n int) {
		for i := 0; i < n; i++ {
			add(rng.Uint64()%64, uint32(rng.Intn(50)))
		}
	}
	fill := func(s *Sketch, n int) *Sketch {
		feed(s.AddN, n)
		return s
	}
	s := New(32, 3)
	check(s, "new")
	for round := 0; round < 50; round++ {
		fill(s, 20)
		check(s, "add")
		small, _ := fill(New(32, 3), 5).MarshalBinary()
		if _, err := s.LoadEncoded(small, fixed(100), 8); err != nil {
			t.Fatal(err)
		}
		check(s, "load of a smaller sketch")
		big := NewDelta(32, 3)
		feed(big.AddN, 200)
		if _, err := mergeInto(s, big, fixed(100), 8); err != nil {
			t.Fatal(err)
		}
		check(s, "merge")
		check(s.Clone(), "clone")
		reshaped, _ := fill(New(16, 2), 10).MarshalBinary()
		c := s.Clone()
		if err := c.UnmarshalBinary(reshaped); err != nil {
			t.Fatal(err)
		}
		check(c, "load of another shape")
		if round%10 == 9 {
			s.Reset()
			check(s, "reset")
		}
	}
}
