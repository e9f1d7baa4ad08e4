package streamer_test

import (
	"testing"
	"time"

	"elga/internal/client"
	"elga/internal/cluster"
	"elga/internal/config"
	"elga/internal/graph"
	"elga/internal/metrics"
	"elga/internal/streamer"
)

func testCluster(t *testing.T, agents int) *cluster.Cluster {
	t.Helper()
	cfg := config.Default()
	cfg.SketchWidth = 256
	cfg.SketchDepth = 2
	cfg.Virtual = 8
	cfg.ReplicationThreshold = 0
	c, err := cluster.New(cluster.Options{Config: cfg, Agents: agents})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Shutdown)
	return c
}

func TestStreamerRoutesBothCopies(t *testing.T) {
	c := testCluster(t, 3)
	s, err := c.NewStreamer()
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	const n = 200
	for i := 0; i < n; i++ {
		if err := s.Send(graph.Change{Action: graph.Insert,
			Src: graph.VertexID(i), Dst: graph.VertexID(i + 1000)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := s.Sent(); got != 2*n {
		t.Fatalf("Sent = %d, want %d (two copies per change)", got, 2*n)
	}
	if err := c.Seal(); err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, cnt := range c.EdgeCounts() {
		total += cnt
	}
	if total != 2*n {
		t.Fatalf("stored copies = %d, want %d", total, 2*n)
	}
}

func TestStreamerDeletions(t *testing.T) {
	c := testCluster(t, 2)
	s, err := c.NewStreamer()
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ins := graph.Change{Action: graph.Insert, Src: 5, Dst: 6}
	del := graph.Change{Action: graph.Delete, Src: 5, Dst: 6}
	if err := s.SendBatch(graph.Batch{ins, del}); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := c.Seal(); err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, cnt := range c.EdgeCounts() {
		total += cnt
	}
	if total != 0 {
		t.Fatalf("copies after insert+delete = %d", total)
	}
}

func TestStreamerSurvivesScaleUp(t *testing.T) {
	c := testCluster(t, 2)
	s, err := c.NewStreamer()
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	send := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			if err := s.Send(graph.Change{Action: graph.Insert,
				Src: graph.VertexID(i), Dst: graph.VertexID(i + 5000)}); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	send(0, 100)
	if _, err := c.AddAgent(); err != nil {
		t.Fatal(err)
	}
	if err := c.Seal(); err != nil {
		t.Fatal(err)
	}
	send(100, 200) // the streamer must pick up the new view (or forward)
	if err := c.Seal(); err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, cnt := range c.EdgeCounts() {
		total += cnt
	}
	if total != 400 {
		t.Fatalf("copies = %d, want 400", total)
	}
}

// TestStreamerViewBetweenChunks: a membership view that reaches the
// streamer while copies are buffered under the one before — a batch half
// streamed, one chunk already flushed — is installed between two chunks,
// never under buffered copies, and every copy ends with its owner. A leave
// moves the members after the departed one down a position, so buffered
// copies would go to the wrong bucket, or to none, were the view installed
// under them.
func TestStreamerViewBetweenChunks(t *testing.T) {
	for _, tc := range []struct {
		name   string
		change func(*cluster.Cluster) error
	}{
		{"join", func(c *cluster.Cluster) error { _, err := c.AddAgent(); return err }},
		{"leave", func(c *cluster.Cluster) error { return c.RemoveAgent(0) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := testCluster(t, 3)
			s, err := streamer.Start(streamer.Options{
				Config: c.Config(), Network: c.Network(), MasterAddr: c.MasterAddr(), BatchSize: 64,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			if err := s.WaitReady(); err != nil {
				t.Fatal(err)
			}
			send := func(lo, hi int) {
				for i := lo; i < hi; i++ {
					if err := s.Send(graph.Change{Action: graph.Insert,
						Src: graph.VertexID(i), Dst: graph.VertexID(i*7 + 5000)}); err != nil {
						t.Fatal(err)
					}
				}
			}
			const n = 300
			send(0, 40) // a chunk of 64 copies flushed, 16 buffered
			before := s.Epoch()
			if err := tc.change(c); err != nil {
				t.Fatal(err)
			}
			// The coordinator holds no unacknowledged frame once the
			// streamer's feed has taken the new view.
			coord := c.Coordinator()
			epoch := func() uint64 {
				return uint64(c.Registry().Sum("elga_dir_epoch", metrics.Labels{"addr": coord.Addr()}))
			}
			for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
				if epoch() > before && coord.TransportStats().OutstandingAcks == 0 {
					break
				}
				if time.Now().After(deadline) {
					t.Fatal("the streamer never acknowledged the view")
				}
			}
			if got := s.Epoch(); got != before {
				t.Fatalf("a view installed under buffered copies: epoch %d, was %d", got, before)
			}
			send(40, n)
			if err := s.Flush(); err != nil {
				t.Fatal(err)
			}
			for deadline := time.Now().Add(5 * time.Second); s.Epoch() <= before; time.Sleep(time.Millisecond) {
				if time.Now().After(deadline) {
					t.Fatalf("the streamer still routes by epoch %d after the %s", s.Epoch(), tc.name)
				}
			}
			if err := c.Seal(); err != nil {
				t.Fatal(err)
			}
			total := 0
			for _, cnt := range c.EdgeCounts() {
				total += cnt
			}
			if total != 2*n {
				t.Fatalf("stored copies = %d, want %d", total, 2*n)
			}
		})
	}
}

func TestClientQueryStalenessStep(t *testing.T) {
	c := testCluster(t, 2)
	if err := c.Load(graph.EdgeList{{Src: 0, Dst: 1}, {Src: 1, Dst: 2}}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(client.RunSpec{Algo: "wcc", FromScratch: true}); err != nil {
		t.Fatal(err)
	}
	cl, err := c.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	w, found, err := cl.Query(2)
	if err != nil || !found || uint64(w) != 0 {
		t.Fatalf("query: w=%d found=%v err=%v", w, found, err)
	}
}
