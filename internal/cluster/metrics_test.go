package cluster

import (
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"elga/internal/client"
	"elga/internal/transport"
)

// scrape fetches and returns one /metrics exposition from the cluster's
// embedded endpoint.
func scrape(t *testing.T, addr string) string {
	t.Helper()
	resp, err := http.Get(fmt.Sprintf("http://%s/metrics", addr))
	if err != nil {
		t.Fatalf("scrape: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("scrape: status %d", resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("scrape: %v", err)
	}
	return string(body)
}

// tryScrape is scrape + a light format check, returning errors instead of
// failing the test — safe to call off the test goroutine.
func tryScrape(addr string) error {
	resp, err := http.Get(fmt.Sprintf("http://%s/metrics", addr))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("status %d", resp.StatusCode)
	}
	for _, line := range strings.Split(strings.TrimSpace(string(body)), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			return fmt.Errorf("malformed sample line %q", line)
		}
		if _, err := strconv.ParseFloat(fields[1], 64); err != nil {
			return fmt.Errorf("unparseable value in %q: %w", line, err)
		}
	}
	return nil
}

// parseExposition validates the Prometheus text format line by line and
// returns the family→type map.
func parseExposition(t *testing.T, text string) map[string]string {
	t.Helper()
	families := make(map[string]string)
	for _, line := range strings.Split(strings.TrimSpace(text), "\n") {
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			fields := strings.Fields(line)
			if len(fields) != 4 {
				t.Fatalf("malformed TYPE line %q", line)
			}
			families[fields[2]] = fields[3]
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		// Sample lines are `name{labels} value`; labels may contain spaces
		// only inside quoted values, which our label set never has.
		fields := strings.Fields(line)
		if len(fields) != 2 {
			t.Fatalf("malformed sample line %q", line)
		}
		if _, err := strconv.ParseFloat(fields[1], 64); err != nil {
			t.Fatalf("unparseable value in %q: %v", line, err)
		}
	}
	return families
}

// TestMetricsSmokeScrape is the CI metrics-smoke job: boot a two-agent
// cluster with the scrape endpoint on an ephemeral port, run a few
// PageRank supersteps, and assert the exposition parses with the metric
// families the ISSUE's acceptance criteria name — ≥12 families, ≥3 of
// them histograms, with the superstep phase histogram actually populated.
func TestMetricsSmokeScrape(t *testing.T) {
	c, err := New(Options{Config: testConfig(), Agents: 2, MetricsAddr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Shutdown)
	if c.MetricsAddr() == "" {
		t.Fatal("metrics server did not bind")
	}
	if err := c.Load(randomGraph(60, 200, 11)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(client.RunSpec{Algo: "pagerank", MaxSteps: 5, FromScratch: true}); err != nil {
		t.Fatal(err)
	}

	text := scrape(t, c.MetricsAddr())
	families := parseExposition(t, text)
	if len(families) < 12 {
		t.Errorf("only %d metric families, want >= 12:\n%v", len(families), families)
	}
	histograms := 0
	for _, typ := range families {
		if typ == "histogram" {
			histograms++
		}
	}
	if histograms < 3 {
		t.Errorf("only %d histogram families, want >= 3", histograms)
	}
	for _, fam := range []string{
		"elga_superstep_phase_seconds",
		"elga_reqrep_roundtrip_seconds",
		"elga_migration_batch_edges",
		"elga_transport_frames_in_total",
		"elga_inbox_depth",
		"elga_dir_agents",
	} {
		if _, ok := families[fam]; !ok {
			t.Errorf("family %s missing from scrape", fam)
		}
	}
	// The 5-step run must have landed phase observations: the shared
	// compute histogram aggregates across both agents.
	if !strings.Contains(text, `elga_superstep_phase_seconds_count{phase="compute"}`) {
		t.Errorf("compute phase histogram missing:\n%s", text)
	}
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, `elga_superstep_phase_seconds_count{phase="compute"}`) {
			n, _ := strconv.ParseFloat(strings.Fields(line)[1], 64)
			// 2 agents x 5 steps = 10 compute phases (plus any from load).
			if n < 10 {
				t.Errorf("compute phase count = %v, want >= 10", n)
			}
		}
	}

	// The report pipeline feeds the coordinator's health model; samples
	// are fire-and-forget, so poll briefly.
	stepped := func() bool {
		st, err := c.Status()
		if err != nil {
			t.Fatal(err)
		}
		for _, a := range st.Agents {
			if a.StepSeconds > 0 {
				return true
			}
		}
		return false
	}
	deadline := time.Now().Add(5 * time.Second)
	for !stepped() {
		if time.Now().After(deadline) {
			t.Fatal("step_time signal never reached the coordinator")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestMetricsScrapeUnderChaosPageRank hammers the scrape endpoint from a
// background goroutine while PageRank runs over a lossy network — the
// -race proof that lock-free metric reads are safe against the event
// loops writing them, and that scraping never wedges a run.
func TestMetricsScrapeUnderChaosPageRank(t *testing.T) {
	fn := transport.NewFaultNetwork(transport.NewInproc(), transport.FaultConfig{
		Seed: 99, Drop: 0.03, Duplicate: 0.01,
	})
	c, err := New(Options{
		Config: chaosConfig(), Agents: 3, Network: fn, MetricsAddr: "127.0.0.1:0",
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Shutdown)
	if err := c.Load(randomGraph(60, 240, 13)); err != nil {
		t.Fatal(err)
	}

	// t.Fatal is test-goroutine-only, so the scraper records its first
	// failure and the test goroutine reports it after the run.
	done := make(chan struct{})
	var wg sync.WaitGroup
	var scrapes int
	var scrapeErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			if err := tryScrape(c.MetricsAddr()); err != nil {
				scrapeErr = err
				return
			}
			scrapes++
			time.Sleep(5 * time.Millisecond)
		}
	}()

	_, runErr := c.ctl.RunWith(client.RunSpec{Algo: "pagerank", MaxSteps: 8, FromScratch: true}, chaosRun)
	close(done)
	wg.Wait()
	if runErr != nil {
		t.Fatal(runErr)
	}
	if scrapeErr != nil {
		t.Fatalf("concurrent scrape failed: %v", scrapeErr)
	}
	if scrapes == 0 {
		t.Fatal("no scrapes completed during the run")
	}
	// Drops force retransmissions; the scrape must see them too.
	text := scrape(t, c.MetricsAddr())
	if !strings.Contains(text, "elga_transport_retransmits_total") {
		t.Error("retransmit counter family missing")
	}
}
