package client_test

import (
	"errors"
	"strings"
	"testing"
	"time"

	"elga/internal/client"
	"elga/internal/cluster"
	"elga/internal/config"
	"elga/internal/graph"
)

// newClient starts an in-process cluster of two agents and a client of it.
func newClient(t *testing.T) (*cluster.Cluster, *client.Client) {
	t.Helper()
	cfg := config.Default()
	cfg.SketchWidth, cfg.SketchDepth, cfg.Virtual = 512, 4, 16
	c, err := cluster.New(cluster.Options{Config: cfg, Agents: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Shutdown)
	cl, err := c.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = cl.Close() })
	return c, cl
}

// within fails the test if call has not returned after limit, so a hang
// is reported as one rather than as the test binary's timeout.
func within(t *testing.T, limit time.Duration, what string, call func() error) error {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- call() }()
	select {
	case err := <-done:
		return err
	case <-time.After(limit):
		t.Fatalf("%s did not return within %v", what, limit)
		return nil
	}
}

func TestSealIdleCluster(t *testing.T) {
	_, cl := newClient(t)
	for i := 0; i < 2; i++ {
		if err := cl.Seal(); err != nil {
			t.Fatalf("seal %d of an idle cluster: %v", i, err)
		}
	}
}

func TestQueryVertexNoAgentHolds(t *testing.T) {
	c, cl := newClient(t)
	if err := c.Load(graph.EdgeList{{Src: 1, Dst: 2}, {Src: 2, Dst: 3}}); err != nil {
		t.Fatal(err)
	}
	state, found, err := cl.Query(999)
	if err != nil || found || state != 0 {
		t.Fatalf("query of a vertex no agent holds: state %d, found %v, err %v; want 0, false, nil", state, found, err)
	}
}

func TestRunUnknownAlgorithm(t *testing.T) {
	_, cl := newClient(t)
	stats, err := cl.Run(client.RunSpec{Algo: "no-such-program", FromScratch: true})
	var oe *client.OpError
	if !errors.As(err, &oe) {
		t.Fatalf("run of an unknown program: stats %+v, err %v; want an *OpError", stats, err)
	}
	if !strings.HasPrefix(oe.Op, "run ") || !strings.Contains(oe.Op, "no-such-program") || !errors.Is(err, client.ErrUnknownProgram) {
		t.Fatalf("op %q, err %v; want the run named and ErrUnknownProgram", oe.Op, err)
	}
}

func TestCallAfterCloseFailsPromptly(t *testing.T) {
	_, cl := newClient(t)
	if err := cl.Close(); err != nil {
		t.Fatal(err)
	}
	co := client.CallOpts{Timeout: 200 * time.Millisecond}
	calls := map[string]func() error{
		"seal": func() error { return cl.SealWith(co) },
		"query": func() error {
			_, _, err := cl.QueryWith(1, co)
			return err
		},
		"run": func() error {
			_, err := cl.RunWith(client.RunSpec{Algo: "wcc", FromScratch: true}, co)
			return err
		},
	}
	for name, call := range calls {
		start := time.Now()
		err := within(t, 5*time.Second, name+" after Close", call)
		var oe *client.OpError
		if !errors.As(err, &oe) {
			t.Fatalf("%s after Close: err %v, want an *OpError", name, err)
		}
		t.Logf("%s after Close: %v in %v", name, err, time.Since(start))
	}
}

func TestCloseTwice(t *testing.T) {
	_, cl := newClient(t)
	for i := 0; i < 2; i++ {
		if err := within(t, 5*time.Second, "Close", cl.Close); err != nil {
			t.Fatalf("close %d: %v", i, err)
		}
	}
}
