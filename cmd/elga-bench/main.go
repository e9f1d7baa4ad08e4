// Command elga-bench regenerates the paper's evaluation: one sub-command
// per table/figure of §4 plus the §3.5 latency table, printing the rows
// the paper plots. `elga-bench all` runs everything in paper order; `-md`
// emits Markdown suitable for EXPERIMENTS.md. Regression tracking across
// changes is benchmark/'s job (BENCHMARK.json), not this command's.
//
//	elga-bench fig11                      # PageRank vs baselines
//	elga-bench -quick all                 # smoke-scale pass over every experiment
//	elga-bench -md all > out.md
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"elga/internal/experiments"
)

func main() {
	quick := flag.Bool("quick", false, "reduced trials and inputs")
	md := flag.Bool("md", false, "emit Markdown tables")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: elga-bench [-quick] [-md] {all")
		for _, id := range experiments.Order {
			fmt.Fprintf(os.Stderr, "|%s", id)
		}
		fmt.Fprintln(os.Stderr, "}")
	}
	flag.Parse()
	if flag.NArg() < 1 {
		flag.Usage()
		os.Exit(2)
	}
	scale := experiments.Full
	if *quick {
		scale = experiments.Quick
	}
	ids := flag.Args()
	if len(ids) == 1 && ids[0] == "all" {
		ids = experiments.Order
	}
	failed := 0
	for _, id := range ids {
		fn, ok := experiments.Registry[id]
		if !ok {
			fmt.Fprintf(os.Stderr, "elga-bench: unknown experiment %q\n", id)
			failed++
			continue
		}
		start := time.Now()
		rep, err := fn(scale)
		if err != nil {
			fmt.Fprintf(os.Stderr, "elga-bench: %s failed: %v\n", id, err)
			failed++
			continue
		}
		if *md {
			fmt.Print(rep.Markdown())
		} else {
			fmt.Print(rep.String())
		}
		fmt.Fprintf(os.Stderr, "[%s completed in %s]\n\n", id, time.Since(start).Round(time.Millisecond))
	}
	if failed > 0 {
		os.Exit(1)
	}
}
