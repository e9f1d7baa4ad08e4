package config

import (
	"flag"
	"testing"
	"time"
)

func TestCommonFlagsRoundTrip(t *testing.T) {
	c := DefaultCommon()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	c.RegisterFlags(fs)
	err := fs.Parse([]string{
		"-virtual", "32", "-sketch-width", "128", "-sketch-depth", "2",
		"-split-threshold", "64", "-max-replicas", "3",
		"-metrics-addr", "127.0.0.1:9999",
		"-trace", "-trace-sample", "0.5",
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
	if !c.Trace.Enabled || c.Trace.Sample != 0.5 {
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
	c := DefaultCommon()
	c.Durability.Enabled = true // no Dir
	if err := c.Validate(); err == nil {
		t.Error("durability without a sink directory accepted")
	}
	c = DefaultCommon()
	c.Trace.Sample = 1.5
	if err := c.Validate(); err == nil {
		t.Error("trace sample > 1 accepted")
	}
	// The trace package reads a zero Sample as "export every root", so
	// -trace-sample 0 must not pass for "export none".
	c = DefaultCommon()
	c.Trace.Sample = 0
	if err := c.Validate(); err == nil {
		t.Error("trace sample 0 accepted")
	}
	c = DefaultCommon()
	c.Durability.Enabled, c.Durability.Dir, c.Durability.EverySteps = true, t.TempDir(), -1
	if err := c.Validate(); err == nil {
		t.Error("negative checkpoint cadence accepted")
	}
	c = DefaultCommon()
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
	c, err := CommonFromEnv()
	if err != nil {
		t.Fatal(err)
	}
	if c.MetricsAddr != "127.0.0.1:8888" {
		t.Fatalf("metrics addr env ignored: %q", c.MetricsAddr)
	}
	if !c.Durability.Enabled || c.Durability.EverySteps != 7 {
		t.Fatalf("durability env ignored: %+v", c.Durability)
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	t.Setenv("ELGA_CKPT_STEPS", "seven")
	if _, err := CommonFromEnv(); err == nil {
		t.Fatal("malformed ELGA_CKPT_STEPS accepted")
	}
}

func TestDirectoryComposite(t *testing.T) {
	d := Directory{Common: DefaultCommon()}
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

// spellings is every environment variable the CLI honours, the flag it
// seeds, a value, and the change that value makes to DefaultCommon.
var spellings = []struct {
	env, flag, value string
	want             func(*Common)
}{
	{"ELGA_METRICS_ADDR", "metrics-addr", "127.0.0.1:9100", func(c *Common) { c.MetricsAddr = "127.0.0.1:9100" }},
	{"ELGA_TRACE", "trace", "1", func(c *Common) { c.Trace.Enabled = true }},
	{"ELGA_TRACE_SAMPLE", "trace-sample", "0.25", func(c *Common) { c.Trace.Sample = 0.25 }},
	{"ELGA_EVENTS", "events", "1", func(c *Common) { c.Events.Enabled = true }},
	{"ELGA_CKPT", "durable", "1", func(c *Common) { c.Durability.Enabled = true }},
	{"ELGA_CKPT_DIR", "ckpt-dir", "/var/lib/elga", func(c *Common) { c.Durability.Dir = "/var/lib/elga" }},
	{"ELGA_CKPT_KEY", "ckpt-key", "node7", func(c *Common) { c.Durability.Key = "node7" }},
	{"ELGA_CKPT_STEPS", "ckpt-steps", "9", func(c *Common) { c.Durability.EverySteps = 9 }},
	{"ELGA_CKPT_INTERVAL", "ckpt-interval", "90s", func(c *Common) { c.Durability.Interval = 90 * time.Second }},
	{"ELGA_PROFILE_RATES", "profile-rates", "1", func(c *Common) { c.Profile.Rates = true }},
}

// lookupOf serves applyEnv from a map instead of the process environment.
func lookupOf(env map[string]string) func(string) (string, bool) {
	return func(k string) (string, bool) { v, ok := env[k]; return v, ok }
}

// TestEnvTableSeedsEveryFlag: each remaining spelling, given as a variable
// or as its flag, builds the composite it built before.
func TestEnvTableSeedsEveryFlag(t *testing.T) {
	if len(spellings) != len(envFlags) {
		t.Fatalf("%d spellings tested, %d in envFlags", len(spellings), len(envFlags))
	}
	for i, sp := range spellings {
		if envFlags[i].env != sp.env || envFlags[i].flag != sp.flag {
			t.Fatalf("envFlags[%d] = %v, want %s -> -%s", i, envFlags[i], sp.env, sp.flag)
		}
		want := DefaultCommon()
		sp.want(&want)

		fromEnv := DefaultCommon()
		fs := flag.NewFlagSet("env", flag.ContinueOnError)
		fromEnv.RegisterFlags(fs)
		if err := applyEnv(fs, lookupOf(map[string]string{sp.env: sp.value})); err != nil {
			t.Fatalf("%s=%s: %v", sp.env, sp.value, err)
		}
		if fromEnv != want {
			t.Errorf("%s=%s built %+v, want %+v", sp.env, sp.value, fromEnv, want)
		}

		fromFlag := DefaultCommon()
		fs = flag.NewFlagSet("flag", flag.ContinueOnError)
		fromFlag.RegisterFlags(fs)
		if err := fs.Parse([]string{"-" + sp.flag + "=" + sp.value}); err != nil {
			t.Fatalf("-%s=%s: %v", sp.flag, sp.value, err)
		}
		if fromFlag != want {
			t.Errorf("-%s=%s built %+v, want %+v", sp.flag, sp.value, fromFlag, want)
		}
	}
}

// TestEnvBooleansAnyNonEmpty: a boolean variable is on when set to any
// non-empty value and off when empty, as it always read.
func TestEnvBooleansAnyNonEmpty(t *testing.T) {
	for _, v := range []string{"1", "0", "yes", "false"} {
		c := DefaultCommon()
		fs := flag.NewFlagSet("env", flag.ContinueOnError)
		c.RegisterFlags(fs)
		if err := applyEnv(fs, lookupOf(map[string]string{"ELGA_TRACE": v, "ELGA_EVENTS": ""})); err != nil {
			t.Fatal(err)
		}
		if !c.Trace.Enabled || c.Events.Enabled {
			t.Errorf("ELGA_TRACE=%q ELGA_EVENTS=\"\": trace %v events %v, want on/off", v, c.Trace.Enabled, c.Events.Enabled)
		}
	}
}

// TestFlagOverridesEnv: Parse applies the environment first, so a flag on
// the command line wins over its variable.
func TestFlagOverridesEnv(t *testing.T) {
	t.Setenv("ELGA_TRACE", "1")
	t.Setenv("ELGA_TRACE_SAMPLE", "0.25")
	t.Setenv("ELGA_CKPT_STEPS", "7")
	t.Setenv("ELGA_CKPT_DIR", "/from/env")
	c := DefaultCommon()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	c.RegisterFlags(fs)
	if err := Parse(fs, []string{"-trace=false", "-trace-sample", "0.5", "-ckpt-steps", "2"}); err != nil {
		t.Fatal(err)
	}
	if c.Trace.Enabled || c.Trace.Sample != 0.5 || c.Durability.EverySteps != 2 {
		t.Fatalf("flags did not override the environment: trace %+v, ckpt-steps %d", c.Trace, c.Durability.EverySteps)
	}
	if c.Durability.Dir != "/from/env" {
		t.Fatalf("unflagged variable lost: ckpt dir %q", c.Durability.Dir)
	}
}

// TestRemovedSpellingsAreGone: the knobs that only ever had one value are
// constants now, and the cluster profiling plane's switches went with the
// plane; neither their flags nor their variables are read.
func TestRemovedSpellingsAreGone(t *testing.T) {
	t.Setenv("ELGA_TRACE_FLIGHT", "8")
	t.Setenv("ELGA_EVENTS_RING", "8")
	t.Setenv("ELGA_EVENTS_TIMELINE", "8")
	t.Setenv("ELGA_PROFILE_STEPS", "8")
	t.Setenv("ELGA_PROFILE_SECONDS", "8")
	t.Setenv("ELGA_PROFILE_COOLDOWN", "8s")
	t.Setenv("ELGA_PROFILE", "1")
	t.Setenv("ELGA_PROFILE_DIR", "/from/env")
	t.Setenv("ELGA_PROFILE_AUTO", "1")
	c, err := CommonFromEnv()
	if err != nil {
		t.Fatal(err)
	}
	if c != DefaultCommon() {
		t.Fatalf("removed variables changed the composite: %+v", c)
	}
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	c.RegisterFlags(fs)
	for _, name := range []string{"trace-flight", "events-ring", "events-timeline", "profile-steps", "profile-cooldown",
		"profile", "profile-dir", "profile-auto"} {
		if fs.Lookup(name) != nil {
			t.Errorf("flag -%s still registered", name)
		}
	}
}
