package profile

import (
	"bytes"
	"path/filepath"
	"testing"
	"time"

	"elga/internal/wire"
)

func TestKindNames(t *testing.T) {
	for k := KindCPU; k <= KindAllocs; k++ {
		name := KindName(k)
		if name == "" {
			t.Fatalf("kind %d unnamed", k)
		}
		back, ok := KindFromName(name)
		if !ok || back != k {
			t.Fatalf("KindFromName(%q) = %d, %v; want %d", name, back, ok, k)
		}
		if !ValidKind(k) {
			t.Fatalf("kind %d invalid", k)
		}
	}
	if _, ok := KindFromName("flamegraph"); ok {
		t.Fatal("bogus kind resolved")
	}
	if ValidKind(0) || ValidKind(KindAllocs+1) {
		t.Fatal("out-of-range kind validated")
	}
}

func TestSnapshotParses(t *testing.T) {
	for _, k := range []uint8{KindHeap, KindGoroutine, KindAllocs} {
		data, err := Snapshot(k)
		if err != nil {
			t.Fatalf("Snapshot(%s): %v", KindName(k), err)
		}
		p, err := Parse(data)
		if err != nil {
			t.Fatalf("Parse(%s): %v", KindName(k), err)
		}
		if len(p.SampleTypes) == 0 || p.Samples < 0 {
			t.Fatalf("%s profile parsed empty: %+v", KindName(k), p)
		}
	}
}

func TestSnapshotHeapSampleTypes(t *testing.T) {
	data, err := Snapshot(KindHeap)
	if err != nil {
		t.Fatal(err)
	}
	p, err := Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	if !p.HasSampleType("inuse_space") && !p.HasSampleType("alloc_space") {
		t.Fatalf("heap profile missing expected sample types: %+v", p.SampleTypes)
	}
}

func TestCaptureCPUParses(t *testing.T) {
	data, err := CaptureCPU(50 * time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	p, err := Parse(data)
	if err != nil {
		t.Fatalf("Parse(cpu): %v", err)
	}
	if !p.HasSampleType("cpu") && !p.HasSampleType("samples") {
		t.Fatalf("cpu profile missing cpu sample type: %+v", p.SampleTypes)
	}
}

func TestStartCPUConflicts(t *testing.T) {
	c, err := StartCPU()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := StartCPU(); err == nil {
		c.Stop()
		t.Fatal("second StartCPU succeeded; the process-wide slot must conflict")
	}
	if data := c.Stop(); len(data) == 0 {
		t.Fatal("Stop returned no bytes")
	}
	// The slot must be free again after Stop.
	c2, err := StartCPU()
	if err != nil {
		t.Fatalf("StartCPU after Stop: %v", err)
	}
	c2.Stop()
}

func TestParseRejectsGarbage(t *testing.T) {
	for _, data := range [][]byte{
		nil,
		{},
		[]byte("not a profile"),
		{0x1f, 0x8b},                   // gzip magic, truncated
		{0x1f, 0x8b, 0x08, 0x00, 0x99}, // gzip magic, corrupt body
		bytes.Repeat([]byte{0xff}, 256),
	} {
		if _, err := Parse(data); err == nil {
			t.Fatalf("Parse(%x) succeeded on garbage", data)
		}
	}
}

// TestConfigDefaults pins the auto-capture window, the CPU fallback window
// and the cooldown to the values the plane has always defaulted to, and
// checks the zero Config is off.
func TestConfigDefaults(t *testing.T) {
	if AutoSteps != 4 || DefaultSeconds != 1.0 || AutoCooldown != 2*time.Minute {
		t.Fatalf("constants %d/%v/%v, want 4/1/2m", AutoSteps, DefaultSeconds, AutoCooldown)
	}
	var cfg Config
	if cfg.Enabled || cfg.AutoCapture || cfg.Rates {
		t.Fatalf("profiling must default off: %+v", cfg)
	}
}

func TestStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	data := []byte("pretend pprof payload")
	art, err := st.Add(wire.ProfileArtifact{
		ID: 1, AgentID: 3, Kind: KindCPU,
		RunID: 2, StepStart: 4, StepEnd: 7,
		Verdict: "straggler", Cause: "compute-skew",
	}, data)
	if err != nil {
		t.Fatal(err)
	}
	if art.Segment == "" || art.Length != uint64(len(data)) {
		t.Fatalf("artifact not filled: %+v", art)
	}
	back, err := st.Read(art.Segment)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back, data) {
		t.Fatal("segment bytes mismatch")
	}

	// A fresh store over the same directory must reload the manifest.
	st2, err := OpenStore(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	arts := st2.List()
	if len(arts) != 1 || arts[0].Segment != art.Segment || arts[0].Verdict != "straggler" {
		t.Fatalf("manifest did not survive reopen: %+v", arts)
	}
	if _, err := st2.Read("07-doesnotexist"); err == nil {
		t.Fatal("reading a missing segment succeeded")
	}
	// Segments are files on disk under the configured directory.
	if m, _ := filepath.Glob(filepath.Join(dir, "*")); len(m) < 2 {
		t.Fatalf("expected segment + manifest files, got %v", m)
	}
}

func TestStoreMemFallback(t *testing.T) {
	st, err := OpenStore(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Add(wire.ProfileArtifact{ID: 9, Kind: KindHeap}, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if st.Len() != 1 {
		t.Fatalf("Len = %d", st.Len())
	}
	arts := st.List()
	if data, err := st.Read(arts[0].Segment); err != nil || string(data) != "x" {
		t.Fatalf("mem read: %q, %v", data, err)
	}
	var nilStore *Store
	if nilStore.Len() != 0 {
		t.Fatal("nil store Len must be 0")
	}
}

func TestStoreDedup(t *testing.T) {
	st, err := OpenStore(Config{})
	if err != nil {
		t.Fatal(err)
	}
	data := []byte("identical bytes")
	a1, err := st.Add(wire.ProfileArtifact{ID: 1, Kind: KindHeap}, data)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := st.Add(wire.ProfileArtifact{ID: 2, Kind: KindHeap}, data)
	if err != nil {
		t.Fatal(err)
	}
	if a1.Segment != a2.Segment {
		t.Fatal("identical payloads must share a content-addressed segment")
	}
	if len(st.List()) != 2 {
		t.Fatal("both artifacts must appear in the manifest")
	}
}

func TestStoreErrNotExistTolerated(t *testing.T) {
	// OpenStore over an empty directory must not invent a manifest error.
	st, err := OpenStore(Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if len(st.List()) != 0 {
		t.Fatal("fresh store not empty")
	}
}
