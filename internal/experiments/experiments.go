// Package experiments reproduces every table and figure of the paper's
// evaluation (§4) at laptop scale. Each Fig* function runs one experiment
// and returns a Report whose rows mirror the series the paper plots; the
// elga-bench command prints them and EXPERIMENTS.md records the
// paper-vs-measured comparison. Scale is reduced (see internal/datasets),
// so the comparisons target *shape* — who wins, by what factor, where the
// crossovers sit — not absolute numbers.
package experiments

import (
	"fmt"
	"strings"
	"time"

	"elga/internal/client"
	"elga/internal/cluster"
	"elga/internal/config"
	"elga/internal/graph"
	"elga/internal/stats"
)

// Report is one experiment's result table.
type Report struct {
	// ID is the paper artifact ("fig11", "table2", ...).
	ID string
	// Title describes the experiment.
	Title string
	// Header names the columns.
	Header []string
	// Rows hold formatted cells.
	Rows [][]string
	// Notes carries shape observations (who wins, crossovers).
	Notes []string
}

// AddRow appends a formatted row.
func (r *Report) AddRow(cells ...string) { r.Rows = append(r.Rows, cells) }

// AddNote appends a shape note.
func (r *Report) AddNote(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// String renders the report as an aligned text table.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", r.ID, r.Title)
	widths := make([]int, len(r.Header))
	for i, h := range r.Header {
		widths[i] = len(h)
	}
	for _, row := range r.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i < len(widths) {
				fmt.Fprintf(&b, "%-*s  ", widths[i], c)
			} else {
				b.WriteString(c + "  ")
			}
		}
		b.WriteByte('\n')
	}
	line(r.Header)
	for _, row := range r.Rows {
		line(row)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// Markdown renders the report as a GitHub table for EXPERIMENTS.md.
func (r *Report) Markdown() string {
	var b strings.Builder
	fmt.Fprintf(&b, "### %s — %s\n\n", r.ID, r.Title)
	b.WriteString("| " + strings.Join(r.Header, " | ") + " |\n")
	b.WriteString("|" + strings.Repeat(" --- |", len(r.Header)) + "\n")
	for _, row := range r.Rows {
		b.WriteString("| " + strings.Join(row, " | ") + " |\n")
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "\n*%s*\n", n)
	}
	b.WriteByte('\n')
	return b.String()
}

// Experiment is one registered paper artifact: its ID and its runner.
type Experiment struct {
	ID  string
	Run func(Scale) (*Report, error)
}

// All lists the experiments in paper order, the order `elga-bench all`
// runs them in.
var All = []Experiment{
	{"table2", Table2},
	{"fig4", Fig4},
	{"fig5", Fig5},
	{"fig6", Fig6},
	{"fig7", Fig7},
	{"fig8", Fig8},
	{"fig9", Fig9},
	{"fig10", Fig10},
	{"fig11", Fig11},
	{"fig12", Fig12},
	{"fig13", Fig13},
	{"fig14", Fig14},
	{"fig15", Fig15},
	{"fig16", Fig16},
	{"fig17", Fig17},
	{"fig18", Fig18},
	{"net", Net},
	{"abl-split", AblSplit},
}

// Scale selects experiment sizing.
type Scale int

const (
	// Quick shrinks trials and inputs for smoke runs and unit tests.
	Quick Scale = iota
	// Full uses the paper's 5-trial methodology at stand-in scale.
	Full
)

// trials returns the trial count for the scale.
func (s Scale) trials() int {
	if s == Quick {
		return 2
	}
	return stats.Trials
}

// baseConfig is the shared experiment configuration: paper defaults
// shrunk to stand-in scale.
func baseConfig() config.Config {
	cfg := config.Default()
	cfg.SketchWidth = 4096
	cfg.SketchDepth = 4
	cfg.Virtual = 32
	cfg.ReplicationThreshold = 4096
	cfg.MaxReplicas = 4
	return cfg
}

// newCluster boots an experiment cluster and loads a graph.
func newCluster(cfg config.Config, agents int, el graph.EdgeList) (*cluster.Cluster, error) {
	c, err := cluster.New(cluster.Options{Config: cfg, Agents: agents})
	if err != nil {
		return nil, err
	}
	if el != nil {
		if err := c.Load(el); err != nil {
			c.Shutdown()
			return nil, err
		}
	}
	return c, nil
}

// perIterationTime runs PageRank for iters supersteps and returns the
// mean per-iteration wall time — the paper's primary metric.
func perIterationTime(c *cluster.Cluster, iters uint32) (time.Duration, error) {
	st, err := c.Run(client.RunSpec{Algo: "pagerank", MaxSteps: iters, FromScratch: true})
	if err != nil {
		return 0, err
	}
	return st.PerStep(), nil
}

// repeatSeconds runs fn `trials` times and returns the samples in seconds.
func repeatSeconds(trials int, fn func() (time.Duration, error)) ([]float64, error) {
	out := make([]float64, 0, trials)
	for i := 0; i < trials; i++ {
		d, err := fn()
		if err != nil {
			return nil, err
		}
		out = append(out, d.Seconds())
	}
	return out, nil
}

func fmtDur(seconds float64) string {
	return time.Duration(seconds * float64(time.Second)).Round(time.Microsecond).String()
}

func fmtSummary(s stats.Summary) string {
	return fmt.Sprintf("%s ± %s", fmtDur(s.Mean), fmtDur(s.CI))
}
