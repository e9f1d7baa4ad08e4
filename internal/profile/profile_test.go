package profile

import (
	"runtime"
	"testing"
)

// TestConfigDefaults: the zero Config is off, and applying it (or a nil
// one) leaves the runtime's mutex sampling where it was.
func TestConfigDefaults(t *testing.T) {
	var cfg Config
	if cfg.Rates {
		t.Fatalf("profiling must default off: %+v", cfg)
	}
	before := runtime.SetMutexProfileFraction(-1)
	cfg.ApplyRates()
	(*Config)(nil).ApplyRates()
	if got := runtime.SetMutexProfileFraction(-1); got != before {
		t.Fatalf("an off Config moved the mutex fraction from %d to %d", before, got)
	}
}

// TestApplyRatesArmsMutexFraction: Rates arms the runtime's mutex sampling
// at DefaultMutexFraction, which is what gives /debug/pprof/mutex data.
func TestApplyRatesArmsMutexFraction(t *testing.T) {
	before := runtime.SetMutexProfileFraction(-1)
	t.Cleanup(func() {
		runtime.SetMutexProfileFraction(before)
		runtime.SetBlockProfileRate(0)
	})
	(&Config{Rates: true}).ApplyRates()
	if got := runtime.SetMutexProfileFraction(-1); got != DefaultMutexFraction {
		t.Fatalf("mutex profile fraction = %d after ApplyRates, want %d", got, DefaultMutexFraction)
	}
}
