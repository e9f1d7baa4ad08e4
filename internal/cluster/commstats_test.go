package cluster

import (
	"testing"

	"elga/internal/client"
	"elga/internal/gen"
)

// TestCommStatsCountEveryScatter: with CommAccounting, CommStats counts
// every message a PageRank run scatters, once, as local or remote — each
// vertex scatters along each out-edge every step but the last, whose
// messages nobody would read, so a 10-step run counts 9 messages per edge —
// and two identical runs over a static graph count
// the same split and the same remote bytes. Without it, all three stay 0.
func TestCommStatsCountEveryScatter(t *testing.T) {
	const steps = 10
	el := gen.RMAT(10, 8192, gen.Graph500Params(), 3).Dedupe()
	run := func(t *testing.T, c *Cluster) (local, remote, remoteBytes uint64) {
		t.Helper()
		l0, r0, b0 := c.CommStats()
		st, err := c.Run(client.RunSpec{Algo: "pagerank", MaxSteps: steps, FromScratch: true})
		if err != nil {
			t.Fatal(err)
		}
		if st.Steps != steps {
			t.Fatalf("run took %d steps, want %d", st.Steps, steps)
		}
		l1, r1, b1 := c.CommStats()
		return l1 - l0, r1 - r0, b1 - b0
	}
	for _, on := range []bool{true, false} {
		c, err := New(Options{Config: testConfig(), Agents: 4, CommAccounting: on})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(c.Shutdown)
		if err := c.Load(el); err != nil {
			t.Fatal(err)
		}
		l1, r1, b1 := run(t, c)
		l2, r2, b2 := run(t, c)
		if !on {
			if l1|r1|b1|l2|r2|b2 != 0 {
				t.Fatalf("accounting off counted (%d, %d, %d) then (%d, %d, %d)", l1, r1, b1, l2, r2, b2)
			}
			continue
		}
		t.Logf("%d edges: %d local, %d remote messages, %d remote bytes a run", len(el), l1, r1, b1)
		if l1 == 0 || r1 == 0 || b1 == 0 {
			t.Fatalf("accounting on counted (%d, %d, %d)", l1, r1, b1)
		}
		if l1 != l2 || r1 != r2 || b1 != b2 {
			t.Fatalf("identical runs counted (%d, %d, %d) then (%d, %d, %d)", l1, r1, b1, l2, r2, b2)
		}
		if want := uint64((steps - 1) * len(el)); l1+r1 != want {
			t.Fatalf("counted %d scattered messages, the run scattered %d", l1+r1, want)
		}
	}
}
