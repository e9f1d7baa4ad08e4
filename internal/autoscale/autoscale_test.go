package autoscale

import (
	"math"
	"testing"
	"time"
)

func TestEMAConvergesToConstant(t *testing.T) {
	e := NewEMA(10 * time.Second)
	now := time.Unix(0, 0)
	for i := 0; i < 100; i++ {
		now = now.Add(time.Second)
		e.Observe(now, 42)
	}
	if math.Abs(e.Value()-42) > 1e-6 {
		t.Errorf("EMA = %v, want 42", e.Value())
	}
}

func TestEMAHalfLife(t *testing.T) {
	e := NewEMA(10 * time.Second)
	now := time.Unix(0, 0)
	e.Observe(now, 0)
	// One observation of 100 after exactly one half-life: the EMA
	// should move halfway.
	e.Observe(now.Add(10*time.Second), 100)
	if math.Abs(e.Value()-50) > 1e-9 {
		t.Errorf("after one half-life EMA = %v, want 50", e.Value())
	}
}

func TestEMASmoothsSpikes(t *testing.T) {
	e := NewEMA(30 * time.Second)
	now := time.Unix(0, 0)
	e.Observe(now, 10)
	e.Observe(now.Add(time.Second), 1000) // spike
	if e.Value() > 100 {
		t.Errorf("EMA followed the spike: %v", e.Value())
	}
	if !e.Primed() {
		t.Error("primed flag")
	}
}

func TestEMAUnprimedValueIsZero(t *testing.T) {
	e := NewEMA(10 * time.Second)
	if e.Value() != 0 {
		t.Errorf("unprimed Value = %v, want 0", e.Value())
	}
	if e.Primed() {
		t.Error("fresh EMA reports primed")
	}
}

func TestEMAZeroDt(t *testing.T) {
	// Two samples with the same timestamp: the dt clamp must keep the
	// alpha finite (a zero dt would make the update a no-op or NaN
	// depending on the formula) and the value between the two samples.
	e := NewEMA(10 * time.Second)
	now := time.Unix(50, 0)
	e.Observe(now, 100)
	e.Observe(now, 200)
	v := e.Value()
	if math.IsNaN(v) || v < 100 || v > 200 {
		t.Errorf("same-timestamp EMA = %v, want within [100,200]", v)
	}
	// dt is clamped to a nanosecond, so the second sample should barely
	// move a 10s-half-life average.
	if v > 101 {
		t.Errorf("zero-dt sample moved the EMA to %v; clamp should make it negligible", v)
	}
}

func TestEMANegativeDt(t *testing.T) {
	// Out-of-order timestamps (clock skew between reporting agents): the
	// clamp treats them like zero dt instead of producing a negative
	// alpha that would extrapolate away from the sample.
	e := NewEMA(10 * time.Second)
	e.Observe(time.Unix(100, 0), 10)
	e.Observe(time.Unix(90, 0), 1000)
	v := e.Value()
	if math.IsNaN(v) || v < 10 || v > 1000 {
		t.Errorf("backwards-time EMA = %v, want within [10,1000]", v)
	}
}

func TestPolicyTarget(t *testing.T) {
	p := Policy{PerAgentCapacity: 100, Min: 2, Max: 16}
	cases := map[float64]int{0: 2, 150: 2, 250: 3, 1000: 10, 99999: 16}
	for load, want := range cases {
		if got := p.Target(load); got != want {
			t.Errorf("Target(%v) = %d, want %d", load, got, want)
		}
	}
	if (Policy{Min: 3}).Target(500) != 3 {
		t.Error("zero capacity should pin to Min")
	}
}

func TestAutoscalerCooldown(t *testing.T) {
	a := New(time.Second, Policy{PerAgentCapacity: 10, Min: 1, Max: 100, Cooldown: time.Minute}, 1)
	now := time.Unix(0, 0)
	for i := 0; i < 50; i++ {
		now = now.Add(100 * time.Millisecond)
		a.Observe(now, 100)
	}
	d1 := a.Decide(now)
	if !d1.Applied || d1.Target != 10 {
		t.Fatalf("first decision %+v", d1)
	}
	// Still cooling down: same load, no application.
	a.Observe(now.Add(time.Second), 200)
	d2 := a.Decide(now.Add(2 * time.Second))
	if d2.Applied {
		t.Fatal("decision applied during cooldown")
	}
	// After cooldown it moves again.
	for i := 0; i < 50; i++ {
		now = now.Add(2 * time.Second)
		a.Observe(now, 200)
	}
	d3 := a.Decide(now.Add(time.Minute))
	if !d3.Applied || d3.Target != 20 {
		t.Fatalf("post-cooldown decision %+v", d3)
	}
	if a.Current() != 20 {
		t.Errorf("Current = %d", a.Current())
	}
	if len(a.History()) != 3 {
		t.Errorf("history = %d", len(a.History()))
	}
}

func TestAutoscalerTracksStepLoad(t *testing.T) {
	// The Figure 18 shape: a step function in load is followed, with
	// lag, by the target.
	a := New(5*time.Second, Policy{PerAgentCapacity: 50, Min: 1, Max: 64, Cooldown: 10 * time.Second}, 4)
	now := time.Unix(0, 0)
	levels := []float64{200, 200, 800, 800, 100, 100}
	var applied []int
	for _, level := range levels {
		for i := 0; i < 30; i++ {
			now = now.Add(time.Second)
			a.Observe(now, level)
		}
		d := a.Decide(now)
		if d.Applied {
			applied = append(applied, d.Target)
		}
	}
	// Level 200 targets 4, which equals the starting count (no move);
	// 800 scales to 16; the decay back toward 100 lands just above the
	// 2-agent capacity boundary, giving 3.
	want := []int{16, 3}
	if len(applied) != len(want) {
		t.Fatalf("applied sequence %v, want %v", applied, want)
	}
	for i := range want {
		if applied[i] != want[i] {
			t.Fatalf("applied sequence %v, want %v", applied, want)
		}
	}
}

func TestDecideUnprimedDoesNothing(t *testing.T) {
	a := New(time.Second, Policy{PerAgentCapacity: 1, Min: 0, Max: 10}, 5)
	d := a.Decide(time.Unix(100, 0))
	if d.Applied {
		t.Error("unprimed autoscaler applied a decision")
	}
	if a.Current() != 5 {
		t.Error("current changed without samples")
	}
}
