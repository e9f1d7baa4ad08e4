package main

import (
	"os"
	"regexp"
	"runtime/debug"
	"testing"
	"time"
)

// TestSmoke runs every workload at smoke scale, untraced and traced (with
// the micro-pass), and holds the output to BENCHMARK.json: every workload
// and metric named there is emitted exactly once, nothing else is, and
// every reference check passes.
func TestSmoke(t *testing.T) {
	specFile = "../BENCHMARK.json"
	sp, err := readSpec()
	if err != nil {
		t.Fatal(err)
	}
	if len(sp.Workloads) > 8 || len(sp.EndToEnd) > 16 || len(sp.PerLayer) > 128 {
		t.Fatalf("%d workloads, %d end-to-end, %d per-layer metrics exceed the 8/16/128 limits",
			len(sp.Workloads), len(sp.EndToEnd), len(sp.PerLayer))
	}
	if len(sp.Workloads) != len(workloads) {
		t.Fatalf("%s names %d workloads, the benchmark has %d", specFile, len(sp.Workloads), len(workloads))
	}
	nameOK := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	start := time.Now()
	for i, w := range workloads {
		if sp.Workloads[i].Name != w.Name || !nameOK.MatchString(w.Name) {
			t.Errorf("workload %d is %q in %s, %q in the benchmark", i, sp.Workloads[i].Name, specFile, w.Name)
		}
		for trace, want := range [][]metricSpec{sp.EndToEnd, sp.PerLayer} {
			began := time.Now()
			o := options{seed: 7, seconds: 0.2, trace: trace, out: t.TempDir()}
			res, samples, err := measure(w, scales["smoke"], o)
			if err != nil {
				t.Fatalf("%s trace=%d: %v", w.Name, trace, err)
			}
			if res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%d: %d of %d operations failed", w.Name, trace, res.Failed, res.Attempted)
			}
			seen := map[string]int{}
			for _, s := range samples {
				seen[s.Name]++
				if trace == 0 && s.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s is %v, must never be 0", w.Name, s.Name, s.Value)
				}
			}
			for _, m := range want {
				if !nameOK.MatchString(m.Name) {
					t.Errorf("metric name %q is not [A-Za-z0-9_.-]+", m.Name)
				}
				if seen[m.Name] != 1 {
					t.Errorf("%s trace=%d: metric %s emitted %d times, want once", w.Name, trace, m.Name, seen[m.Name])
				}
				delete(seen, m.Name)
			}
			for name := range seen {
				t.Errorf("%s trace=%d: metric %s is emitted but not in %s", w.Name, trace, name, specFile)
			}
			t.Logf("%s trace=%d: %v", w.Name, trace, time.Since(began))
			if trace == 1 {
				if _, err := os.Stat(o.out + "/trace-" + w.Name + ".json"); err != nil {
					t.Errorf("%s: span trace not written: %v", w.Name, err)
				}
			}
		}
	}
	if d := time.Since(start); d > 10*time.Second && !raceBuild() {
		t.Errorf("smoke scale took %v, want under 10s", d)
	}
}

// raceBuild reports a test binary built with -race, which runs several
// times slower: the time limit is for the plain build.
func raceBuild() bool {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return false
	}
	for _, s := range info.Settings {
		if s.Key == "-race" {
			return s.Value == "true"
		}
	}
	return false
}
