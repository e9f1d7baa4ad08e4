package config

import (
	"flag"
	"fmt"
	"os"

	"elga/internal/checkpoint"
	"elga/internal/events"
	"elga/internal/profile"
	"elga/internal/trace"
)

// Common is the per-process composite every role shares: the cluster
// Config all participants must agree on, plus the cross-cutting planes
// (observability endpoint, tracing, durability, events, profiling). This
// package is the only place that reads flags or the environment: cmd/elga
// fills a Common here and hands its plain values to the library layers,
// which read nothing else.
type Common struct {
	// Cluster is the shared cluster configuration (routing, sketch,
	// replication, failure detector).
	Cluster Config
	// MetricsAddr serves /metrics and /debug/pprof when non-empty.
	MetricsAddr string
	// Trace configures distributed tracing.
	Trace trace.Config
	// Durability configures durable incremental checkpointing.
	Durability checkpoint.Config
	// Events configures the structured control-plane event journal.
	Events events.Config
	// Profile configures the cluster profiling plane: runtime sampling
	// rates, the coordinator artifact store, and straggler auto-capture.
	Profile profile.Config
}

// DefaultCommon returns the composite a role starts from before the
// environment and its flags apply: the default cluster Config, every
// plane off, every trace root exported and the default checkpoint
// cadence.
func DefaultCommon() Common {
	return Common{
		Cluster:    Default(),
		Trace:      trace.Config{Sample: 1},
		Durability: checkpoint.Config{EverySteps: checkpoint.DefaultEverySteps},
	}
}

// CommonFromEnv returns DefaultCommon overridden by the environment alone,
// for commands whose own flags do not include the shared set.
func CommonFromEnv() (Common, error) {
	c := DefaultCommon()
	fs := flag.NewFlagSet("env", flag.ContinueOnError)
	c.RegisterFlags(fs)
	return c, Parse(fs, nil)
}

// Validate reports configuration errors across every embedded plane.
func (c *Common) Validate() error {
	if err := c.Cluster.Validate(); err != nil {
		return err
	}
	if c.Trace.Sample <= 0 || c.Trace.Sample > 1 {
		return fmt.Errorf("config: trace sample %g outside (0,1]", c.Trace.Sample)
	}
	if d := &c.Durability; d.Enabled {
		if d.Dir == "" {
			return fmt.Errorf("checkpoint: enabled without a sink directory")
		}
		if d.EverySteps < 0 {
			return fmt.Errorf("checkpoint: superstep cadence must be non-negative, got %d", d.EverySteps)
		}
		if d.Interval < 0 {
			return fmt.Errorf("checkpoint: interval must be non-negative, got %v", d.Interval)
		}
	}
	return nil
}

// RegisterFlags registers the shared flag set on fs, defaulting from c.
func (c *Common) RegisterFlags(fs *flag.FlagSet) {
	fs.IntVar(&c.Cluster.Virtual, "virtual", c.Cluster.Virtual, "virtual agents per agent")
	fs.IntVar(&c.Cluster.SketchWidth, "sketch-width", c.Cluster.SketchWidth, "count-min sketch width")
	fs.IntVar(&c.Cluster.SketchDepth, "sketch-depth", c.Cluster.SketchDepth, "count-min sketch depth")
	fs.Uint64Var(&c.Cluster.ReplicationThreshold, "split-threshold", c.Cluster.ReplicationThreshold,
		fmt.Sprintf("degree estimate above which a vertex splits (0 disables; %d, the default, derives it "+
			"from the sketch: an eighth of a mean agent's edge copies, rounded down to a power of two, at least 256)",
			uint64(SplitByLoad)))
	fs.IntVar(&c.Cluster.MaxReplicas, "max-replicas", c.Cluster.MaxReplicas, "replica cap per split vertex")
	fs.StringVar(&c.MetricsAddr, "metrics-addr", c.MetricsAddr,
		"serve /metrics and /debug/pprof on this address (empty = disabled; also ELGA_METRICS_ADDR)")
	fs.BoolVar(&c.Trace.Enabled, "trace", c.Trace.Enabled, "enable distributed tracing (also ELGA_TRACE=1)")
	fs.Float64Var(&c.Trace.Sample, "trace-sample", c.Trace.Sample, "fraction of trace roots exported to the collector (0,1]")
	fs.BoolVar(&c.Events.Enabled, "events", c.Events.Enabled, "journal structured control-plane events (also ELGA_EVENTS=1)")
	fs.BoolVar(&c.Durability.Enabled, "durable", c.Durability.Enabled, "enable durable checkpointing (also ELGA_CKPT=1)")
	fs.StringVar(&c.Durability.Dir, "ckpt-dir", c.Durability.Dir, "checkpoint sink directory (required with -durable)")
	fs.StringVar(&c.Durability.Key, "ckpt-key", c.Durability.Key, "stable durable identity for restore-on-restart (default derived per role)")
	fs.IntVar(&c.Durability.EverySteps, "ckpt-steps", c.Durability.EverySteps, "checkpoint every N compute supersteps")
	fs.DurationVar(&c.Durability.Interval, "ckpt-interval", c.Durability.Interval, "additional wall-clock checkpoint cadence (0 = off)")
	fs.BoolVar(&c.Profile.Enabled, "profile", c.Profile.Enabled, "enable the cluster profiling plane (also ELGA_PROFILE=1)")
	fs.StringVar(&c.Profile.Dir, "profile-dir", c.Profile.Dir, "profile artifact store directory (default in-memory)")
	fs.BoolVar(&c.Profile.Rates, "profile-rates", c.Profile.Rates, "arm runtime mutex/block profiling rates (also ELGA_PROFILE_RATES=1)")
	fs.BoolVar(&c.Profile.AutoCapture, "profile-auto", c.Profile.AutoCapture, "auto-capture profiles on straggler/suspect verdicts (also ELGA_PROFILE_AUTO=1)")
}

// envFlags maps each environment variable the CLI honours to the shared
// flag it seeds.
var envFlags = []struct{ env, flag string }{
	{"ELGA_METRICS_ADDR", "metrics-addr"},
	{"ELGA_TRACE", "trace"},
	{"ELGA_TRACE_SAMPLE", "trace-sample"},
	{"ELGA_EVENTS", "events"},
	{"ELGA_CKPT", "durable"},
	{"ELGA_CKPT_DIR", "ckpt-dir"},
	{"ELGA_CKPT_KEY", "ckpt-key"},
	{"ELGA_CKPT_STEPS", "ckpt-steps"},
	{"ELGA_CKPT_INTERVAL", "ckpt-interval"},
	{"ELGA_PROFILE", "profile"},
	{"ELGA_PROFILE_DIR", "profile-dir"},
	{"ELGA_PROFILE_RATES", "profile-rates"},
	{"ELGA_PROFILE_AUTO", "profile-auto"},
}

// Parse seeds the shared flags on fs from the environment, then parses
// args, so a flag on the command line overrides its variable. fs must
// carry the shared set (RegisterFlags) and no other flag of the same
// names.
func Parse(fs *flag.FlagSet, args []string) error {
	if err := applyEnv(fs, os.LookupEnv); err != nil {
		return err
	}
	return fs.Parse(args)
}

// applyEnv sets every flag in envFlags whose variable lookup finds
// non-empty. Any non-empty value turns a boolean flag on.
func applyEnv(fs *flag.FlagSet, lookup func(string) (string, bool)) error {
	for _, e := range envFlags {
		v, ok := lookup(e.env)
		f := fs.Lookup(e.flag)
		if !ok || v == "" || f == nil {
			continue
		}
		if b, isBool := f.Value.(interface{ IsBoolFlag() bool }); isBool && b.IsBoolFlag() {
			v = "true"
		}
		if err := fs.Set(e.flag, v); err != nil {
			return fmt.Errorf("config: %s=%q: %w", e.env, v, err)
		}
	}
	return nil
}

// Directory is the composite a directory process consumes; an agent
// process consumes Common alone.
type Directory struct {
	Common
	// TraceOut, when non-empty, writes collected spans as Chrome
	// trace-event JSON on shutdown (implies tracing; coordinator only).
	TraceOut string
}

// RegisterFlags registers the shared flags plus the directory-only ones.
func (d *Directory) RegisterFlags(fs *flag.FlagSet) {
	d.Common.RegisterFlags(fs)
	fs.StringVar(&d.TraceOut, "trace-out", d.TraceOut,
		"write collected spans as Chrome trace-event JSON here on shutdown (implies -trace; coordinator only)")
}
