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
	"slices"
	"time"

	"elga/internal/experiments"
)

func main() {
	quick := flag.Bool("quick", false, "reduced trials and inputs")
	md := flag.Bool("md", false, "emit Markdown tables")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: elga-bench [-quick] [-md] {all")
		for _, e := range experiments.All {
			fmt.Fprintf(os.Stderr, "|%s", e.ID)
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
	failed := 0
	todo := experiments.All
	if args := flag.Args(); len(args) != 1 || args[0] != "all" {
		todo = nil
		for _, id := range args {
			i := slices.IndexFunc(experiments.All, func(e experiments.Experiment) bool { return e.ID == id })
			if i < 0 {
				fmt.Fprintf(os.Stderr, "elga-bench: unknown experiment %q\n", id)
				failed++
				continue
			}
			todo = append(todo, experiments.All[i])
		}
	}
	for _, e := range todo {
		start := time.Now()
		rep, err := e.Run(scale)
		if err != nil {
			fmt.Fprintf(os.Stderr, "elga-bench: %s failed: %v\n", e.ID, err)
			failed++
			continue
		}
		if *md {
			fmt.Print(rep.Markdown())
		} else {
			fmt.Print(rep.String())
		}
		fmt.Fprintf(os.Stderr, "[%s completed in %s]\n\n", e.ID, time.Since(start).Round(time.Millisecond))
	}
	if failed > 0 {
		os.Exit(1)
	}
}
