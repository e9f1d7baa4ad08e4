package graph

import (
	"bytes"
	"strings"
	"testing"
)

func sample() EdgeList {
	return EdgeList{{0, 1}, {1, 2}, {2, 0}, {3, 1}, {0, 1}}
}

func TestMaxVertexAndNumVertices(t *testing.T) {
	el := sample()
	if el.MaxVertex() != 3 {
		t.Errorf("MaxVertex = %d", el.MaxVertex())
	}
	if el.NumVertices() != 4 {
		t.Errorf("NumVertices = %d", el.NumVertices())
	}
	if (EdgeList{}).MaxVertex() != 0 {
		t.Error("empty MaxVertex != 0")
	}
}

func TestDedupe(t *testing.T) {
	el := sample().Dedupe()
	if len(el) != 4 {
		t.Fatalf("Dedupe len = %d, want 4", len(el))
	}
	for i := 1; i < len(el); i++ {
		if el[i] == el[i-1] {
			t.Fatal("duplicate survived")
		}
	}
	if len(EdgeList{}.Dedupe()) != 0 {
		t.Error("empty Dedupe broken")
	}
}

func TestSymmetrized(t *testing.T) {
	el := EdgeList{{0, 1}, {2, 2}}.Symmetrized()
	want := map[Edge]bool{{0, 1}: true, {1, 0}: true, {2, 2}: true}
	if len(el) != len(want) {
		t.Fatalf("Symmetrized = %v", el)
	}
	for _, e := range el {
		if !want[e] {
			t.Errorf("unexpected edge %v", e)
		}
	}
}

func TestChanges(t *testing.T) {
	b := EdgeList{{4, 5}}.Changes()
	if len(b) != 1 || b[0].Action != Insert || b[0].Src != 4 || b[0].Dst != 5 {
		t.Fatalf("Changes = %+v", b)
	}
}

func TestDegrees(t *testing.T) {
	deg := sample().Degrees()
	if deg[0] != 2 || deg[1] != 1 || deg[2] != 1 || deg[3] != 1 {
		t.Errorf("Degrees = %v", deg)
	}
	if (EdgeList{}).Degrees() != nil {
		t.Error("empty Degrees != nil")
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	el := sample().Dedupe()
	var buf bytes.Buffer
	if _, err := el.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadEdgeList(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(el) {
		t.Fatalf("round trip %d edges, want %d", len(got), len(el))
	}
	for i := range el {
		if got[i] != el[i] {
			t.Fatalf("edge %d: %v != %v", i, got[i], el[i])
		}
	}
}

func TestReadEdgeListSkipsComments(t *testing.T) {
	in := "# header\n% mm comment\n\n1 2\n3 4\n"
	el, err := ReadEdgeList(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(el) != 2 {
		t.Fatalf("parsed %d edges", len(el))
	}
}

func TestReadEdgeListRejectsGarbage(t *testing.T) {
	if _, err := ReadEdgeList(strings.NewReader("1 banana\n")); err == nil {
		t.Error("garbage accepted")
	}
}

func TestBuildCSR(t *testing.T) {
	el := EdgeList{{0, 1}, {0, 2}, {1, 2}, {3, 0}}
	c := BuildCSR(el)
	if c.N != 4 || c.NumEdges() != 4 {
		t.Fatalf("N=%d edges=%d", c.N, c.NumEdges())
	}
	if got := c.Out(0); len(got) != 2 {
		t.Errorf("Out(0) = %v", got)
	}
	if c.OutDegree(0) != 2 || c.OutDegree(2) != 0 {
		t.Error("OutDegree wrong")
	}
	if got := c.In(2); len(got) != 2 {
		t.Errorf("In(2) = %v", got)
	}
	if got := c.In(0); len(got) != 1 || got[0] != 3 {
		t.Errorf("In(0) = %v", got)
	}
}

func TestBuildCSREmpty(t *testing.T) {
	c := BuildCSR(nil)
	if c.N != 0 || c.NumEdges() != 0 {
		t.Error("empty CSR wrong")
	}
}

// CSR must agree with a Store loaded with the same edges.
func TestCSRMatchesStore(t *testing.T) {
	el := EdgeList{{0, 1}, {1, 2}, {2, 3}, {3, 0}, {1, 3}}
	c := BuildCSR(el)
	s := NewStore()
	for _, e := range el {
		s.AddEdge(e.Src, e.Dst, Out)
		s.AddEdge(e.Src, e.Dst, In)
	}
	for v := VertexID(0); v < 4; v++ {
		out, in := s.Degree(v)
		if c.OutDegree(v) != out {
			t.Errorf("v%d out-degree CSR %d != store %d", v, c.OutDegree(v), out)
		}
		if len(c.In(v)) != in {
			t.Errorf("v%d in-degree mismatch", v)
		}
	}
}
