package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"
)

// setSchema versions the set file format.
const setSchema = 1

// setMetric is one metric of one workload across a set's runs.
type setMetric struct {
	Unit   string    `json:"unit"`
	Values []float64 `json:"values"`
	N      []int     `json:"n"`
	Median float64   `json:"median"`
	// Spread is (Q3−Q1)/median of Values, the driver's steadiness
	// measure; 0 when the set made a single run.
	Spread float64 `json:"spread"`
}

func (m *setMetric) add(o metricOut) {
	m.Unit = o.Unit
	m.Values = append(m.Values, o.Value)
	m.N = append(m.N, o.N)
	m.Median = median(m.Values)
	m.Spread = spread(m.Values)
}

type setWorkload struct {
	Attempted int                   `json:"ops_attempted"`
	Failed    int                   `json:"ops_failed"`
	EndToEnd  map[string]*setMetric `json:"end_to_end"`
	PerLayer  map[string]*setMetric `json:"per_layer"`
}

// set is a result file: every workload's metrics plus the provenance
// needed to judge whether two files are comparable.
type set struct {
	Schema     int                     `json:"schema"`
	Commit     string                  `json:"commit"`
	GoVersion  string                  `json:"go_version"`
	GOOS       string                  `json:"goos"`
	GOARCH     string                  `json:"goarch"`
	NumCPU     int                     `json:"num_cpu"`
	GOMAXPROCS int                     `json:"gomaxprocs"`
	Seed       int64                   `json:"seed"`
	Runs       int                     `json:"runs"`
	Seconds    float64                 `json:"seconds"`
	Params     scale                   `json:"params"`
	WallS      float64                 `json:"wall_s"`
	Workloads  map[string]*setWorkload `json:"workloads"`
	// Claim is always null: a set states measurements, never a gain.
	Claim *string `json:"claim"`
}

// commit is the VCS revision the binary was built from, when the build
// ran inside a git checkout.
func commit() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// child runs this binary once in the driver's form — a fresh process per
// run, as the driver does — and parses the result line.
func child(o options, workload string, seed int64, trace int) (*result, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self, "-workload", workload, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64), "-trace", strconv.Itoa(trace),
		"-scale", o.scale, "-out", o.out, "-detail")
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	runErr := cmd.Run()
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return nil, fmt.Errorf("%s seed %d trace %d: no result line (%v)", workload, seed, trace, runErr)
	}
	return &res, nil
}

// runSet runs every workload o.runs times untraced (seeds seed, seed+1, …)
// and once traced, prints every metric by name with unit and sample count,
// and writes the set file.
func runSet(o options) error {
	sc, ok := scales[o.scale]
	if !ok {
		return fmt.Errorf("unknown scale %q", o.scale)
	}
	sp, err := readSpec()
	if err != nil {
		return err
	}
	if o.seconds == 0 {
		o.seconds = float64(sp.RunSeconds)
	}
	s := &set{
		Schema: setSchema, Commit: commit(), GoVersion: runtime.Version(),
		GOOS: runtime.GOOS, GOARCH: runtime.GOARCH, NumCPU: runtime.NumCPU(), GOMAXPROCS: procs(),
		Seed: o.seed, Runs: o.runs, Seconds: o.seconds, Params: sc,
		Workloads: map[string]*setWorkload{},
	}
	start := time.Now()
	failed := 0
	for _, w := range workloads {
		sw := &setWorkload{EndToEnd: map[string]*setMetric{}, PerLayer: map[string]*setMetric{}}
		s.Workloads[w.Name] = sw
		fold := func(res *result, into map[string]*setMetric) {
			sw.Attempted += res.Attempted
			sw.Failed += res.Failed
			for name, m := range res.Metrics {
				if into[name] == nil {
					into[name] = &setMetric{}
				}
				into[name].add(m)
			}
		}
		for r := 0; r < o.runs; r++ {
			res, err := child(o, w.Name, o.seed+int64(r), 0)
			if err != nil {
				return err
			}
			fold(res, sw.EndToEnd)
		}
		res, err := child(o, w.Name, o.seed, 1)
		if err != nil {
			return err
		}
		fold(res, sw.PerLayer)
		failed += sw.Failed

		fmt.Printf("%s  ops_attempted=%d ops_failed=%d\n", w.Name, sw.Attempted, sw.Failed)
		for _, group := range []struct {
			specs []metricSpec
			got   map[string]*setMetric
		}{{sp.EndToEnd, sw.EndToEnd}, {sp.PerLayer, sw.PerLayer}} {
			for _, ms := range group.specs {
				if m := group.got[ms.Name]; m != nil {
					fmt.Printf("  %-40s %16.4f %-6s n=%-8d spread=%.3f\n", ms.Name, m.Median, m.Unit, m.N[0], m.Spread)
				}
			}
		}
	}
	s.WallS = time.Since(start).Seconds()

	path := o.setFile
	if path == "" {
		path = filepath.Join(o.out, "set.json")
	}
	data, err := json.MarshalIndent(s, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("set written to %s (%.0f s); \"claim\": null\n", path, s.WallS)
	if failed > 0 {
		return errIncorrect
	}
	return nil
}

func readSet(path string) (*set, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s set
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if s.Schema != setSchema {
		return nil, fmt.Errorf("%s: schema %d, want %d", path, s.Schema, setSchema)
	}
	return &s, nil
}

// compareSets judges set b against set a: one row per workload, one
// verdict per end-to-end metric, from the bounds in BENCHMARK.json. A
// metric whose own run-to-run spread in either set exceeds its bound is
// unresolved, not unchanged. It fails on any regression or a higher share
// of failed operations.
func compareSets(pathA, pathB string) error {
	sp, err := readSpec()
	if err != nil {
		return err
	}
	a, err := readSet(pathA)
	if err != nil {
		return err
	}
	b, err := readSet(pathB)
	if err != nil {
		return err
	}
	// Sets made with other inputs, on another machine or by another
	// toolchain differ for reasons no verdict should be blamed on.
	type provenance struct {
		params     scale
		seconds    float64
		seed       int64
		runs       int
		goVersion  string
		platform   string
		cpus, maxP int
	}
	of := func(s *set) provenance {
		return provenance{s.Params, s.Seconds, s.Seed, s.Runs, s.GoVersion, s.GOOS + "/" + s.GOARCH, s.NumCPU, s.GOMAXPROCS}
	}
	if pa, pb := of(a), of(b); pa != pb {
		return fmt.Errorf("sets are not comparable:\n  %s: %+v\n  %s: %+v", pathA, pa, pathB, pb)
	}
	regressed := 0
	for _, w := range workloads {
		wa, wb := a.Workloads[w.Name], b.Workloads[w.Name]
		if wa == nil || wb == nil {
			return fmt.Errorf("workload %s missing from a set", w.Name)
		}
		fmt.Printf("%s:", w.Name)
		for _, ms := range sp.EndToEnd {
			ma, mb := wa.EndToEnd[ms.Name], wb.EndToEnd[ms.Name]
			if ma == nil || mb == nil || ma.Median == 0 {
				return fmt.Errorf("%s: metric %s missing from a set", w.Name, ms.Name)
			}
			// change is b's median against a's; worse > 0 means b is worse
			// than a by that share of a.
			change := (mb.Median - ma.Median) / ma.Median
			worse := change
			if ms.Better == "higher" {
				worse = -change
			}
			verdict := "within bound"
			switch {
			case ma.Spread > ms.Bound || mb.Spread > ms.Bound:
				verdict = "unresolved"
			case worse > ms.Bound:
				verdict = "regressed"
				regressed++
			case worse < -ms.Bound:
				verdict = "improved"
			}
			fmt.Printf("  %s %+.1f%% %s;", ms.Name, 100*change, verdict)
		}
		fmt.Println()
		if shareA, shareB := ratio(float64(wa.Failed), float64(wa.Attempted)), ratio(float64(wb.Failed), float64(wb.Attempted)); shareB > shareA {
			fmt.Printf("%s: failed-operation share rose from %.4f to %.4f\n", w.Name, shareA, shareB)
			regressed++
		}
	}
	if regressed > 0 {
		return fmt.Errorf("%d regression(s)", regressed)
	}
	return nil
}
