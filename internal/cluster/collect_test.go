package cluster

import (
	"runtime"
	"testing"
	"time"

	"elga/internal/agent"
)

// TestDepartedAgentIsCollectable removes an agent from a loaded, elastic
// cluster and requires the collector to reclaim it: nothing that outlives
// an agent — the shared metric registry, a pending timer, a peer's
// transport state — may keep its store, router and node reachable.
func TestDepartedAgentIsCollectable(t *testing.T) {
	c := newCluster(t, 4, testConfig())
	if err := c.Load(randomGraph(200, 1200, 31)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.AddAgent(); err != nil {
		t.Fatal(err)
	}
	if err := c.Seal(); err != nil {
		t.Fatal(err)
	}
	collected := make(chan struct{})
	runtime.SetFinalizer(c.Agents()[0], func(*agent.Agent) { close(collected) })
	if err := c.RemoveAgent(0); err != nil {
		t.Fatal(err)
	}
	if err := c.Seal(); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(50 * time.Millisecond) {
		runtime.GC()
		select {
		case <-collected:
			return
		default:
		}
		if time.Now().After(deadline) {
			t.Fatal("the removed agent is still reachable 5 s after it left")
		}
	}
}
