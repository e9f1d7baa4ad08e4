package cluster

import (
	"testing"
	"time"

	"elga/internal/client"
	"elga/internal/events"
	"elga/internal/profile"
	"elga/internal/wire"
)

// waitArtifact polls the coordinator's profile store until an artifact
// from the given agent appears (any agent when agentID is 0), failing
// the test at the deadline.
func waitArtifact(t *testing.T, c *Cluster, agentID uint64, deadline time.Duration) []wire.ProfileArtifact {
	t.Helper()
	limit := time.Now().Add(deadline)
	for {
		arts, _, err := c.ProfileList()
		if err != nil {
			t.Fatalf("ProfileList: %v", err)
		}
		var got []wire.ProfileArtifact
		for _, a := range arts {
			if agentID == 0 || a.AgentID == agentID {
				got = append(got, a)
			}
		}
		if len(got) > 0 {
			return got
		}
		if time.Now().After(limit) {
			t.Fatalf("no profile artifact for agent %d after %v (%d artifacts total)", agentID, deadline, len(arts))
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// TestProfileOperatorCapture is the operator path end to end: a client
// capture request with no superstep window snapshots immediately, the
// chunked artifact lands in the store, and its bytes parse as a pprof
// profile.
func TestProfileOperatorCapture(t *testing.T) {
	c, err := New(Options{Config: testConfig(), Agents: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Shutdown)
	el := randomGraph(40, 120, 31)
	if err := c.Load(el); err != nil {
		t.Fatal(err)
	}
	victimID := c.Agents()[0].ID()
	ids, err := c.ProfileCapture(victimID, []uint8{profile.KindHeap, profile.KindGoroutine}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 2 {
		t.Fatalf("expected 2 capture IDs, got %v", ids)
	}
	limit := time.Now().Add(20 * time.Second)
	for {
		arts, _, err := c.ProfileList()
		if err != nil {
			t.Fatal(err)
		}
		if len(arts) >= 2 {
			for _, a := range arts {
				if a.AgentID != victimID {
					t.Fatalf("artifact from wrong agent: %+v", a)
				}
				if a.Verdict != "" || a.Cause != "" {
					t.Fatalf("operator capture must not carry a health verdict: %+v", a)
				}
				data, err := c.ProfileFetch(a.Segment)
				if err != nil {
					t.Fatalf("fetch %s: %v", a.Segment, err)
				}
				if uint64(len(data)) != a.Length {
					t.Fatalf("fetched %d bytes, manifest says %d", len(data), a.Length)
				}
				p, err := profile.Parse(data)
				if err != nil {
					t.Fatalf("artifact %s does not parse: %v", a.Segment, err)
				}
				if len(p.SampleTypes) == 0 {
					t.Fatalf("artifact %s parsed empty", a.Segment)
				}
			}
			break
		}
		if time.Now().After(limit) {
			t.Fatalf("captures %v never landed (%d artifacts)", ids, len(arts))
		}
		time.Sleep(50 * time.Millisecond)
	}
	// Unknown kinds and unknown agents are rejected at the coordinator.
	if _, err := c.ProfileCapture(victimID, []uint8{99}, 0); err == nil {
		t.Fatal("bogus kind accepted")
	}
	if _, err := c.ProfileCapture(999999, nil, 0); err == nil {
		t.Fatal("bogus agent accepted")
	}
}

// TestChaosProfileAutoCapture manufactures a compute-skew straggler with
// an injected per-superstep delay and checks the auto-capture policy end
// to end: the coordinator notices the straggler, requests a
// superstep-scoped profile matching the attributed cause, the artifact
// reassembles into the store with the triggering verdict and run span in
// its manifest, the bytes parse as a pprof profile, and the
// profile-captured event lands in the merged timeline after the health
// verdict that triggered it.
func TestChaosProfileAutoCapture(t *testing.T) {
	cfg := chaosConfig()
	c, err := New(Options{
		Config: cfg, Agents: 3,
		Events:  &events.Config{Enabled: true},
		Profile: &profile.Config{Enabled: true, AutoCapture: true, Dir: t.TempDir()},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Shutdown)
	el := randomGraph(80, 300, 17)
	if err := c.Load(el); err != nil {
		t.Fatal(err)
	}

	victim := c.Agents()[1]
	victimID := victim.ID()
	victim.SetComputeDelay(30 * time.Millisecond)
	defer victim.SetComputeDelay(0)

	// A long run keeps supersteps flowing while the health model primes,
	// the verdict lands, and the superstep-scoped window closes: 300 steps
	// at a 30ms injected delay is ~10s of steady skew.
	done := make(chan error, 1)
	go func() {
		_, err := c.ctl.RunWith(client.RunSpec{
			Algo: "pagerank", MaxSteps: 300, FromScratch: true,
		}, chaosRun)
		done <- err
	}()

	arts := waitArtifact(t, c, victimID, 60*time.Second)
	art := arts[0]

	// The manifest names the triggering verdict and the attributed cause.
	if art.Verdict != "straggler" && art.Verdict != "suspect" {
		t.Fatalf("artifact verdict = %q, want straggler or suspect: %+v", art.Verdict, art)
	}
	if art.Cause == "" {
		t.Fatalf("artifact missing attributed cause: %+v", art)
	}
	// The capture kind matches the cause's kind mapping (compute skew,
	// the expected attribution for an injected compute delay, profiles
	// CPU).
	if art.Cause == "compute-skew" && art.Kind != profile.KindCPU {
		t.Fatalf("compute-skew capture has kind %s, want cpu", profile.KindName(art.Kind))
	}
	// The window is superstep-scoped: the capture armed at a post-vote
	// safe point mid-run and closed a configured number of steps later.
	if art.StepStart == 0 || art.StepEnd < art.StepStart {
		t.Fatalf("artifact span not superstep-scoped: steps [%d, %d]", art.StepStart, art.StepEnd)
	}
	if art.RunID == 0 {
		t.Fatalf("artifact missing run ID: %+v", art)
	}

	// The stored bytes are a real pprof profile.
	data, err := c.ProfileFetch(art.Segment)
	if err != nil {
		t.Fatalf("fetch %s: %v", art.Segment, err)
	}
	p, err := profile.Parse(data)
	if err != nil {
		t.Fatalf("auto-captured artifact does not parse: %v", err)
	}
	if len(p.SampleTypes) == 0 {
		t.Fatal("auto-captured artifact parsed empty")
	}

	// Causal order in the merged timeline: the straggler verdict precedes
	// the profile-captured event it triggered.
	s, err := c.StatusEvents(0)
	if err != nil {
		t.Fatal(err)
	}
	verdict := findEvent(s.Timeline, events.KindHealth, victimID)
	if verdict == nil {
		t.Fatal("no health event for the victim in the timeline")
	}
	captured := findEvent(s.Timeline, events.KindProfile, victimID)
	if captured == nil {
		t.Fatal("no profile-captured event in the timeline")
	}
	if verdict.Seq >= captured.Seq {
		t.Fatalf("profile event out of causal order: health=%d profile=%d", verdict.Seq, captured.Seq)
	}
	if f, ok := captured.Field("verdict"); !ok || !f.IsStr || f.Str != art.Verdict {
		t.Fatalf("profile event verdict field mismatch: %+v vs artifact %q", captured, art.Verdict)
	}

	// Only one auto-capture per agent is in flight at a time and the
	// cooldown spaces repeats, so the delay running for the whole test
	// must not fan out unbounded captures for the victim.
	arts2, _, err := c.ProfileList()
	if err != nil {
		t.Fatal(err)
	}
	victimArts := 0
	for _, a := range arts2 {
		if a.AgentID == victimID {
			victimArts++
		}
	}
	if victimArts > 2 {
		t.Fatalf("cooldown failed: %d artifacts for one straggler", victimArts)
	}

	victim.SetComputeDelay(0)
	if err := <-done; err != nil {
		t.Fatalf("run failed: %v", err)
	}
}
