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
// Config all participants must agree on, plus the cross-cutting
// subsystems (observability endpoint, tracing, durability) that used to
// be wired ad hoc per role. One Common resolves from the environment,
// registers one coherent flag set, and validates as a unit — cmd/elga
// and the cluster harness both consume it, so a setting has exactly one
// spelling everywhere.
type Common struct {
	// Cluster is the shared cluster configuration (routing, sketch,
	// replication, failure detector).
	Cluster Config
	// MetricsAddr serves /metrics and /debug/pprof when non-empty
	// (env: ELGA_METRICS_ADDR).
	MetricsAddr string
	// Trace configures distributed tracing (env: ELGA_TRACE*).
	Trace trace.Config
	// Durability configures durable incremental checkpointing
	// (env: ELGA_CKPT*).
	Durability checkpoint.Config
	// Events configures the structured control-plane event journal
	// (env: ELGA_EVENTS*).
	Events events.Config
	// Profile configures the cluster profiling plane: runtime sampling
	// rates, the coordinator artifact store, and straggler auto-capture
	// (env: ELGA_PROFILE*).
	Profile profile.Config
}

// CommonFromEnv builds the composite from defaults plus environment
// overrides, the seed RegisterFlags starts from so flags and env vars
// funnel into the same struct.
func CommonFromEnv() Common {
	return Common{
		Cluster:     Default(),
		MetricsAddr: os.Getenv("ELGA_METRICS_ADDR"),
		Trace:       trace.FromEnv(),
		Durability:  checkpoint.FromEnv(),
		Events:      events.FromEnv(),
		Profile:     profile.FromEnv(),
	}
}

// Validate reports configuration errors across every embedded subsystem.
func (c *Common) Validate() error {
	if err := c.Cluster.Validate(); err != nil {
		return err
	}
	if err := c.Durability.Validate(); err != nil {
		return err
	}
	if err := c.Profile.Validate(); err != nil {
		return err
	}
	if c.Trace.Sample < 0 || c.Trace.Sample > 1 {
		return fmt.Errorf("config: trace sample %g outside [0,1]", c.Trace.Sample)
	}
	if c.Trace.FlightRecorder < 0 {
		return fmt.Errorf("config: flight recorder capacity must be non-negative, got %d", c.Trace.FlightRecorder)
	}
	return nil
}

// RegisterFlags registers the shared flag set on fs, defaulting from c.
// Flag spellings are unchanged from the pre-composite CLI, so existing
// deployment scripts keep working.
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
	fs.Float64Var(&c.Trace.Sample, "trace-sample", c.Trace.Sample, "fraction of trace roots exported to the collector [0,1]")
	fs.IntVar(&c.Trace.FlightRecorder, "trace-flight", c.Trace.FlightRecorder, "per-participant flight-recorder capacity")
	fs.BoolVar(&c.Events.Enabled, "events", c.Events.Enabled, "journal structured control-plane events (also ELGA_EVENTS=1)")
	fs.IntVar(&c.Events.Ring, "events-ring", c.Events.Ring, "per-participant event journal ring capacity")
	fs.IntVar(&c.Events.Timeline, "events-timeline", c.Events.Timeline, "coordinator merged-timeline capacity")
	c.Durability.RegisterFlags(fs)
	c.Profile.RegisterFlags(fs)
}

// Directory is the composite a directory process consumes; an agent
// process consumes Common alone.
type Directory struct {
	Common
	// TraceOut, when non-empty, writes collected spans as Chrome
	// trace-event JSON on shutdown (implies tracing; coordinator only).
	TraceOut string
}

// DirectoryFromEnv builds a directory composite from the environment.
func DirectoryFromEnv() Directory {
	return Directory{Common: CommonFromEnv()}
}

// RegisterFlags registers the shared flags plus the directory-only ones.
func (d *Directory) RegisterFlags(fs *flag.FlagSet) {
	d.Common.RegisterFlags(fs)
	fs.StringVar(&d.TraceOut, "trace-out", d.TraceOut,
		"write collected spans as Chrome trace-event JSON here on shutdown (implies -trace; coordinator only)")
}

// CheckpointConfig returns the durability configuration in the pointer
// shape agent/directory Options take, or nil when durability is off (so
// those layers fall back to their own env resolution only when the
// composite was never consulted).
func (c *Common) CheckpointConfig() *checkpoint.Config {
	d := c.Durability
	return &d
}

// TraceConfig returns the trace configuration as the pointer shape every
// Options struct takes.
func (c *Common) TraceConfig() *trace.Config {
	t := c.Trace
	return &t
}

// EventsConfig returns the events configuration as the pointer shape
// every Options struct takes.
func (c *Common) EventsConfig() *events.Config {
	e := c.Events
	return &e
}

// ProfileConfig returns the profiling-plane configuration as the pointer
// shape every Options struct takes.
func (c *Common) ProfileConfig() *profile.Config {
	p := c.Profile
	return &p
}
