package gen

import (
	"testing"

	"elga/internal/graph"
)

func TestRMATDeterministic(t *testing.T) {
	a := RMAT(10, 5000, Graph500Params(), 42)
	b := RMAT(10, 5000, Graph500Params(), 42)
	if len(a) != len(b) {
		t.Fatal("non-deterministic size")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("non-deterministic edges")
		}
	}
	c := RMAT(10, 5000, Graph500Params(), 43)
	if len(c) == len(a) {
		same := true
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
		if same {
			t.Error("different seeds produced identical graphs")
		}
	}
}

func TestRMATSkewed(t *testing.T) {
	el := RMAT(12, 20000, Graph500Params(), 7)
	degs := el.Degrees()
	max, sum, cnt := 0, 0, 0
	for _, d := range degs {
		if d > 0 {
			sum += d
			cnt++
		}
		if d > max {
			max = d
		}
	}
	mean := float64(sum) / float64(cnt)
	if float64(max) < 8*mean {
		t.Errorf("R-MAT not skewed: max %d vs mean %.1f", max, mean)
	}
	for _, e := range el {
		if e.Src == e.Dst {
			t.Fatal("self loop survived")
		}
		if uint64(e.Src) >= 1<<12 || uint64(e.Dst) >= 1<<12 {
			t.Fatal("vertex out of range")
		}
	}
}

func TestGrid(t *testing.T) {
	el := Grid(5)
	if len(el) != 4*5*4 || el.NumVertices() != 25 || len(el.Dedupe()) != len(el) {
		t.Fatalf("5x5 grid: %d edges over %d vertices", len(el), el.NumVertices())
	}
	for v, d := range el.Degrees() {
		r, c := int(v)/5, int(v)%5
		want := 4
		if r == 0 || r == 4 {
			want--
		}
		if c == 0 || c == 4 {
			want--
		}
		if d != want {
			t.Errorf("cell (%d,%d) has out-degree %d, want %d", r, c, d, want)
		}
	}
}

func TestUniform(t *testing.T) {
	el := Uniform(100, 2000, 1)
	if len(el) == 0 {
		t.Fatal("empty")
	}
	degs := el.Degrees()
	max := 0
	for _, d := range degs {
		if d > max {
			max = d
		}
	}
	mean := float64(len(el)) / 100
	if float64(max) > 5*mean {
		t.Errorf("uniform graph too skewed: max %d mean %.1f", max, mean)
	}
}

func TestPreferentialAttachment(t *testing.T) {
	el := PreferentialAttachment(2000, 3, 5)
	if len(el) == 0 {
		t.Fatal("empty")
	}
	// Heavy tail: some vertex should have degree far above the mean.
	undirected := map[graph.VertexID]int{}
	for _, e := range el {
		undirected[e.Src]++
		undirected[e.Dst]++
	}
	max := 0
	for _, d := range undirected {
		if d > max {
			max = d
		}
	}
	mean := 2 * float64(len(el)) / float64(len(undirected))
	if float64(max) < 5*mean {
		t.Errorf("PA not heavy-tailed: max %d mean %.1f", max, mean)
	}
	if PreferentialAttachment(1, 3, 5) != nil {
		t.Error("degenerate n should be nil")
	}
}

func TestMeasureProfile(t *testing.T) {
	// Triangle has clustering 1.
	el := graph.EdgeList{{Src: 0, Dst: 1}, {Src: 1, Dst: 2}, {Src: 2, Dst: 0}}
	p := MeasureProfile(el)
	if p.Clustering != 1 {
		t.Errorf("triangle clustering = %v", p.Clustering)
	}
	if p.DegreeCounts[2] != 3 {
		t.Errorf("degree counts = %v", p.DegreeCounts)
	}
	// Path has clustering 0.
	path := graph.EdgeList{{Src: 0, Dst: 1}, {Src: 1, Dst: 2}}
	if MeasureProfile(path).Clustering != 0 {
		t.Error("path clustering should be 0")
	}
}

func TestBTERPreservesScale(t *testing.T) {
	base := PreferentialAttachment(500, 4, 9)
	p := MeasureProfile(base)
	small := BTER(p, 1, 11)
	big := BTER(p, 4, 11)
	if len(small) == 0 || len(big) == 0 {
		t.Fatal("BTER produced empty graphs")
	}
	ratio := float64(len(big)) / float64(len(small))
	if ratio < 2 || ratio > 8 {
		t.Errorf("x4 scale produced edge ratio %.2f", ratio)
	}
	nRatio := float64(big.NumVertices()) / float64(small.NumVertices())
	if nRatio < 3 || nRatio > 5 {
		t.Errorf("x4 scale produced vertex ratio %.2f", nRatio)
	}
}

func TestBTERPreservesClusteringRoughly(t *testing.T) {
	base := PreferentialAttachment(400, 5, 13)
	p := MeasureProfile(base)
	if p.Clustering <= 0 {
		t.Skip("base has no clustering to preserve")
	}
	scaled := BTER(p, 2, 17)
	got := estimateClustering(scaled)
	if got <= 0 {
		t.Errorf("scaled graph lost all clustering (base %.3f)", p.Clustering)
	}
}

func TestScaledFamily(t *testing.T) {
	base := Uniform(200, 800, 3)
	fam := ScaledFamily(base, []float64{1, 2, 4}, 7)
	if len(fam) != 3 {
		t.Fatalf("family size %d", len(fam))
	}
	if len(fam[2]) <= len(fam[0]) {
		t.Error("larger scale not larger")
	}
}

func TestSampleBatch(t *testing.T) {
	el := Uniform(100, 500, 2)
	del, ins, rem := SampleBatch(el, 50, 3)
	if len(del) != 50 || len(ins) != 50 {
		t.Fatalf("sample sizes %d/%d", len(del), len(ins))
	}
	if len(rem)+50 != len(el) {
		t.Fatalf("remaining %d + 50 != %d", len(rem), len(el))
	}
	for i := range del {
		if del[i].Action != graph.Delete || ins[i].Action != graph.Insert {
			t.Fatal("wrong actions")
		}
		if del[i].Src != ins[i].Src || del[i].Dst != ins[i].Dst {
			t.Fatal("delete/insert mismatch")
		}
	}
	// Oversized sample clamps.
	d2, _, r2 := SampleBatch(el[:10], 100, 1)
	if len(d2) != 10 || len(r2) != 0 {
		t.Error("oversample not clamped")
	}
}

func TestBatches(t *testing.T) {
	el := Uniform(50, 200, 4)
	bs := Batches(el, 7)
	total := 0
	for _, b := range bs {
		total += len(b)
	}
	if total != len(el) {
		t.Fatalf("batches cover %d/%d edges", total, len(el))
	}
	if Batches(el, 0) != nil {
		t.Error("count 0 should be nil")
	}
}

func TestStream(t *testing.T) {
	el := Uniform(20, 50, 5)
	n := 0
	err := Stream(el, func(c graph.Change) error {
		if c.Action != graph.Insert {
			t.Fatal("stream should insert")
		}
		n++
		return nil
	})
	if err != nil || n != len(el) {
		t.Fatalf("streamed %d, err %v", n, err)
	}
}
