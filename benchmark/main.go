// Command benchmark is the repository's benchmark: four seeded workloads
// over an in-process ElGA cluster, every answer checked against a
// reference, end-to-end metrics from an untraced pass and per-layer
// metrics from a traced pass plus a layer micro-pass. See README.md.
//
//	benchmark -workload W -seed N -seconds S -trace 0|1   one run (the driver's form)
//	benchmark [-runs K] [-o set.json]                      a full set of all workloads
//	benchmark -compare a.json b.json                       judge set b against set a
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// specFile is the benchmark's contract at the checkout root, where the
// command runs; the bounds are read from it, never repeated here.
var specFile = "BENCHMARK.json"

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// spec is the part of BENCHMARK.json the benchmark reads.
type spec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func readSpec() (*spec, error) {
	data, err := os.ReadFile(specFile)
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", specFile, err)
	}
	return &s, nil
}

// metricOut is one metric of a run's result line. N (the sample count)
// is only written in set files: the driver's form has exactly value and
// unit.
type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
}

// result is the one JSON object a run prints as its last line.
type result struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	scale    string
	out      string
	detail   bool
	runs     int
	setFile  string
	compare  bool
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "run one workload (default: a full set of all of them)")
	flag.Int64Var(&o.seed, "seed", 1, "input seed; used only by the generators")
	flag.Float64Var(&o.seconds, "seconds", 0, "seconds one run measures (default: run_seconds of "+specFile+")")
	flag.IntVar(&o.trace, "trace", 0, "0: untraced pass, end-to-end metrics; 1: traced pass + micro-pass, per-layer metrics")
	flag.StringVar(&o.scale, "scale", "standard", "input sizes: standard or smoke")
	flag.StringVar(&o.out, "out", "benchmark/out", "directory for span traces and set files")
	flag.BoolVar(&o.detail, "detail", false, "add sample counts to the result line")
	flag.IntVar(&o.runs, "runs", 1, "set mode: untraced runs per workload, each on its own seed")
	flag.StringVar(&o.setFile, "o", "", "set mode: result file (default <out>/set.json)")
	flag.BoolVar(&o.compare, "compare", false, "compare two set files: -compare a.json b.json")
	flag.Parse()

	var err error
	switch {
	case o.compare:
		if flag.NArg() != 2 {
			err = fmt.Errorf("-compare needs two set files")
		} else {
			err = compareSets(flag.Arg(0), flag.Arg(1))
		}
	case o.workload == "":
		err = runSet(o)
	default:
		err = runOne(o)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// procs is the GOMAXPROCS of every run: the machine's CPUs, at most one
// per agent.
func procs() int { return min(runtime.NumCPU(), 4) }

// errIncorrect marks a run that finished but failed a check.
var errIncorrect = fmt.Errorf("reference check failed")

// measure runs one workload once: the untraced pass (trace 0, end-to-end
// metrics) or the traced pass with its untraced twin and the micro-pass
// (trace 1, per-layer metrics).
func measure(w workload, sc scale, o options) (res result, samples []sample, err error) {
	budget := time.Duration(o.seconds * float64(time.Second))
	count := func(p *pass) {
		res.Attempted += p.attempted
		res.Failed += p.failed
	}
	if o.trace == 0 {
		p, err := runPass(w, sc, o.seed, false, sc.Rounds, budget)
		count(p)
		if err != nil {
			return res, nil, err
		}
		return res, endToEnd(p), nil
	}
	// The same workload twice — spans off, then on — so the traced run can
	// state what tracing cost; then the layers alone.
	plain, err := runPass(w, sc, o.seed, false, 1, budget*2/5)
	count(plain)
	if err != nil {
		return res, nil, err
	}
	traced, err := runPass(w, sc, o.seed, true, 1, budget*3/5)
	count(traced)
	if err != nil {
		return res, nil, err
	}
	micro, err := runMicro(sc, o.seed)
	if err != nil {
		return res, nil, err
	}
	if err := os.MkdirAll(o.out, 0o755); err == nil {
		err = traced.sp.write(filepath.Join(o.out, "trace-"+w.Name+".json"))
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark: span trace not written:", err)
	}
	return res, perLayer(w, plain, traced, micro), nil
}

// runOne is the driver's form: one workload, one seed, one pass kind; the
// result is the last line of standard output.
func runOne(o options) error {
	w, ok := findWorkload(o.workload)
	if !ok {
		return fmt.Errorf("unknown workload %q", o.workload)
	}
	sc, ok := scales[o.scale]
	if !ok {
		return fmt.Errorf("unknown scale %q", o.scale)
	}
	if o.seconds == 0 {
		s, err := readSpec()
		if err != nil {
			return err
		}
		o.seconds = float64(s.RunSeconds)
	}
	runtime.GOMAXPROCS(procs())
	res, samples, err := measure(w, sc, o)
	if err != nil {
		return err
	}
	res.Correct = res.Failed == 0
	res.Metrics = map[string]metricOut{}
	printSamples(fmt.Sprintf("%s seed=%d seconds=%g trace=%d scale=%s", w.Name, o.seed, o.seconds, o.trace, sc.Name), samples)
	for _, s := range samples {
		m := metricOut{Value: s.Value, Unit: s.Unit}
		if o.detail {
			m.N = s.N
		}
		res.Metrics[s.Name] = m
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !res.Correct {
		return errIncorrect
	}
	return nil
}
