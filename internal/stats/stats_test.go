package stats

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

func TestMeanVarianceStdDev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if Mean(xs) != 5 {
		t.Errorf("Mean = %v", Mean(xs))
	}
	if v := Variance(xs); math.Abs(v-32.0/7) > 1e-12 {
		t.Errorf("Variance = %v", v)
	}
	if Mean(nil) != 0 || Variance([]float64{1}) != 0 {
		t.Error("degenerate cases wrong")
	}
}

func TestTCritical(t *testing.T) {
	if math.Abs(TCritical95(4)-2.776) > 1e-9 {
		t.Errorf("t(4) = %v", TCritical95(4))
	}
	if TCritical95(1000) != 1.96 {
		t.Error("large dof should fall back to normal")
	}
	if !math.IsNaN(TCritical95(0)) {
		t.Error("dof 0 should be NaN")
	}
}

func TestCI95FiveTrials(t *testing.T) {
	// The paper's 5-trial methodology: dof = 4, t = 2.776.
	xs := []float64{10, 11, 9, 10, 10}
	want := 2.776 * StdDev(xs) / math.Sqrt(5)
	if got := CI95(xs); math.Abs(got-want) > 1e-12 {
		t.Errorf("CI95 = %v, want %v", got, want)
	}
	if CI95([]float64{1}) != 0 {
		t.Error("single sample CI should be 0")
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{3, 1, 2})
	if s.N != 3 || s.Mean != 2 || s.Min != 1 || s.Max != 3 {
		t.Errorf("%+v", s)
	}
	if s.String() == "" {
		t.Error("empty String")
	}
	if z := Summarize(nil); z.N != 0 {
		t.Error("empty summarize")
	}
}

func TestSummarizeDurations(t *testing.T) {
	s := SummarizeDurations([]time.Duration{time.Second, 3 * time.Second})
	if s.Mean != 2 {
		t.Errorf("Mean = %v", s.Mean)
	}
}

func TestWelchT(t *testing.T) {
	fast := []float64{1.0, 1.1, 0.9, 1.05, 0.95}
	slow := []float64{2.0, 2.1, 1.9, 2.05, 1.95}
	tstat, dof, ok := WelchT(fast, slow)
	if !ok || tstat >= 0 || dof <= 0 {
		t.Fatalf("t=%v dof=%v ok=%v", tstat, dof, ok)
	}
	if !SignificantlyFaster(fast, slow) {
		t.Error("clear separation not detected")
	}
	if SignificantlyFaster(slow, fast) {
		t.Error("reversed comparison claimed significance")
	}
	if SignificantlyFaster(fast, fast) {
		t.Error("identical samples claimed significance")
	}
	if _, _, ok := WelchT([]float64{1}, fast); ok {
		t.Error("degenerate sample accepted")
	}
}

func TestCoefficientOfVariation(t *testing.T) {
	if cv := CoefficientOfVariation([]float64{5, 5, 5}); cv != 0 {
		t.Errorf("uniform cv = %v", cv)
	}
	if CoefficientOfVariation(nil) != 0 {
		t.Error("empty cv")
	}
	if CoefficientOfVariation([]float64{1, 9}) <= 0 {
		t.Error("spread cv should be positive")
	}
}

func TestCDF(t *testing.T) {
	vals, fracs := CDF([]float64{3, 1, 2})
	if vals[0] != 1 || vals[2] != 3 {
		t.Errorf("values %v", vals)
	}
	if fracs[2] != 1 {
		t.Errorf("fractions %v", fracs)
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if Percentile(xs, 50) != 5 {
		t.Errorf("p50 = %v", Percentile(xs, 50))
	}
	if Percentile(xs, 0) != 1 || Percentile(xs, 100) != 10 {
		t.Error("extremes wrong")
	}
	if Percentile(nil, 50) != 0 {
		t.Error("empty percentile")
	}
}

func TestHistogram(t *testing.T) {
	h := NewHistogram([]float64{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}, 5)
	total := 0
	for _, c := range h.Counts {
		total += c
	}
	if total != 10 {
		t.Errorf("histogram lost samples: %v", h.Counts)
	}
	same := NewHistogram([]float64{7, 7, 7}, 4)
	if same.Counts[0] != 3 {
		t.Errorf("constant histogram: %v", same.Counts)
	}
	if len(NewHistogram(nil, 3).Counts) != 3 {
		t.Error("empty histogram shape")
	}
}

// Property: CI is non-negative and mean lies within [min, max].
func TestSummaryProperty(t *testing.T) {
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) && math.Abs(x) < 1e100 {
				xs = append(xs, x)
			}
		}
		if len(xs) == 0 {
			return true
		}
		s := Summarize(xs)
		return s.CI >= 0 && s.Mean >= s.Min-1e-9 && s.Mean <= s.Max+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
