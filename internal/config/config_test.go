package config

import (
	"testing"

	"elga/internal/hashing"
)

func TestDefaultIsValid(t *testing.T) {
	cfg := Default()
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	if cfg.Virtual != 100 {
		t.Errorf("default virtual = %d, paper uses 100", cfg.Virtual)
	}
	if cfg.Hash != hashing.Wang64 {
		t.Error("default hash should be Wang (paper §4.5)")
	}
}

func TestValidateRejectsBadValues(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.Virtual = 0 },
		func(c *Config) { c.SketchWidth = 0 },
		func(c *Config) { c.SketchDepth = -1 },
		func(c *Config) { c.MaxReplicas = 0 },
		func(c *Config) { c.RequestTimeout = 0 },
	}
	for i, mutate := range bad {
		cfg := Default()
		mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}

func TestNewSketchUsesDimensions(t *testing.T) {
	cfg := Default()
	cfg.SketchWidth, cfg.SketchDepth = 128, 3
	sk := cfg.NewSketch()
	if sk.Width() != 128 || sk.Depth() != 3 {
		t.Errorf("sketch %dx%d", sk.Width(), sk.Depth())
	}
}

func TestReplicasPolicy(t *testing.T) {
	cfg := Default()
	cfg.ReplicationThreshold = 100
	cfg.MaxReplicas = 4
	if cfg.Replicas(50, 1e6, 4) != 1 || cfg.Replicas(150, 1e6, 4) != 2 || cfg.Replicas(10000, 1e6, 4) != 4 {
		t.Error("replica policy wrong")
	}
	cfg.ReplicationThreshold = 0
	if cfg.Replicas(1<<40, 1<<41, 4) != 1 {
		t.Error("threshold 0 should disable splitting")
	}
}

// TestThresholdTable: the default splits at an eighth of a mean agent's
// edge copies, rounded down to a power of two and never below 256; zero and
// explicit thresholds ignore the total and the member count.
func TestThresholdTable(t *testing.T) {
	byLoad := Default()
	if byLoad.ReplicationThreshold != SplitByLoad {
		t.Fatalf("default threshold %d, want SplitByLoad", byLoad.ReplicationThreshold)
	}
	explicit := Default()
	explicit.ReplicationThreshold = 300
	never := Default()
	never.ReplicationThreshold = 0
	for _, c := range []struct {
		cfg     Config
		total   uint64
		members int
		want    uint64
	}{
		{byLoad, 0, 4, 256},              // empty sketch: the floor
		{byLoad, 100_000, 0, 8192},       // no members counts as one
		{byLoad, 16_383, 4, 256},         // 511 a share: still the floor
		{byLoad, 16_384, 4, 512},         // 512: the first step up
		{byLoad, 240_000, 4, 4096},       // R-MAT-14 at P = 4: 7 500 rounds down
		{byLoad, 262_143, 4, 4096},       // just short of the next doubling
		{byLoad, 262_144, 4, 8192},       // the doubling moves it
		{byLoad, 240_000, 16, 1024},      // P = 16: 1 875
		{byLoad, 240_000, 64, 256},       // P = 64: 468, under the floor
		{byLoad, 1 << 40, 1024, 1 << 27}, // large totals keep rounding
		{explicit, 0, 4, 300},
		{explicit, 1 << 40, 64, 300},
		{never, 1 << 40, 4, 0},
	} {
		if got := c.cfg.Threshold(c.total, c.members); got != c.want {
			t.Errorf("threshold %d: Threshold(%d, %d) = %d, want %d",
				c.cfg.ReplicationThreshold, c.total, c.members, got, c.want)
		}
	}
	if k := never.Replicas(1<<30, 1<<31, 4); k != 1 {
		t.Errorf("threshold 0 split a vertex %d ways", k)
	}
	if k := byLoad.Replicas(3137, 240_000, 4); k != 1 {
		t.Errorf("R-MAT-14's largest hub splits %d ways at P = 4, want 1", k)
	}
	if k := byLoad.Replicas(3137, 240_000, 64); k != 8 {
		t.Errorf("R-MAT-14's largest hub splits %d ways at P = 64, want the cap of 8", k)
	}
}
