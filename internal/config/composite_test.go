package config

import (
	"flag"
	"testing"
	"time"
)

func TestCommonFlagsRoundTrip(t *testing.T) {
	c := CommonFromEnv()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	c.RegisterFlags(fs)
	err := fs.Parse([]string{
		"-virtual", "32", "-sketch-width", "128", "-sketch-depth", "2",
		"-split-threshold", "64", "-max-replicas", "3",
		"-metrics-addr", "127.0.0.1:9999",
		"-trace", "-trace-sample", "0.5", "-trace-flight", "64",
		"-durable", "-ckpt-dir", t.TempDir(), "-ckpt-key", "agent-7",
		"-ckpt-steps", "2", "-ckpt-interval", "3s",
	})
	if err != nil {
		t.Fatal(err)
	}
	if c.Cluster.Virtual != 32 || c.Cluster.SketchWidth != 128 || c.Cluster.MaxReplicas != 3 {
		t.Fatalf("cluster flags not applied: %+v", c.Cluster)
	}
	if c.MetricsAddr != "127.0.0.1:9999" {
		t.Fatalf("metrics addr: %q", c.MetricsAddr)
	}
	if !c.Trace.Enabled || c.Trace.Sample != 0.5 || c.Trace.FlightRecorder != 64 {
		t.Fatalf("trace flags not applied: %+v", c.Trace)
	}
	if !c.Durability.Enabled || c.Durability.Key != "agent-7" ||
		c.Durability.EverySteps != 2 || c.Durability.Interval != 3*time.Second {
		t.Fatalf("durability flags not applied: %+v", c.Durability)
	}
	if err := c.Validate(); err != nil {
		t.Fatalf("valid composite rejected: %v", err)
	}
}

func TestCommonValidateRejectsBadSubsystems(t *testing.T) {
	c := CommonFromEnv()
	c.Durability.Enabled = true // no Dir
	if err := c.Validate(); err == nil {
		t.Error("durability without a sink directory accepted")
	}
	c = CommonFromEnv()
	c.Trace.Sample = 1.5
	if err := c.Validate(); err == nil {
		t.Error("trace sample > 1 accepted")
	}
	c = CommonFromEnv()
	c.Cluster.Virtual = 0
	if err := c.Validate(); err == nil {
		t.Error("zero virtual agents accepted")
	}
}

func TestCommonFromEnvOverrides(t *testing.T) {
	t.Setenv("ELGA_METRICS_ADDR", "127.0.0.1:8888")
	t.Setenv("ELGA_CKPT", "1")
	t.Setenv("ELGA_CKPT_DIR", t.TempDir())
	t.Setenv("ELGA_CKPT_STEPS", "7")
	c := CommonFromEnv()
	if c.MetricsAddr != "127.0.0.1:8888" {
		t.Fatalf("metrics addr env ignored: %q", c.MetricsAddr)
	}
	if !c.Durability.Enabled || c.Durability.EverySteps != 7 {
		t.Fatalf("durability env ignored: %+v", c.Durability)
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestDirectoryComposite(t *testing.T) {
	d := DirectoryFromEnv()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	d.RegisterFlags(fs)
	if err := fs.Parse([]string{"-trace-out", "t.json", "-virtual", "7"}); err != nil {
		t.Fatal(err)
	}
	if d.TraceOut != "t.json" || d.Cluster.Virtual != 7 {
		t.Fatalf("directory flags not parsed: trace-out %q, virtual %d", d.TraceOut, d.Cluster.Virtual)
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestPointerShapesCopy(t *testing.T) {
	c := CommonFromEnv()
	tc := c.TraceConfig()
	tc.Enabled = true
	if c.Trace.Enabled {
		t.Error("TraceConfig aliases the composite")
	}
	ck := c.CheckpointConfig()
	ck.Enabled = true
	if c.Durability.Enabled {
		t.Error("CheckpointConfig aliases the composite")
	}
}
