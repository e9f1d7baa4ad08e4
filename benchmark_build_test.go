package elga

import (
	"os"
	"os/exec"
	"testing"
)

// TestBenchmarkModuleVets type-checks the nested benchmark module against
// this module's source. benchmark/ is a module of its own that `go build
// ./... && go test ./...` never compiles, so without this an internal
// signature change breaks `bash benchmark/run.sh` silently. The environment
// is run.sh's: no workspace, no inherited flags, nothing from the network.
func TestBenchmarkModuleVets(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles a second module; skipped under -short")
	}
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go tool on PATH")
	}
	cmd := exec.Command(goBin, "vet", ".")
	cmd.Dir = "benchmark"
	cmd.Env = append(os.Environ(), "GOWORK=off", "GOFLAGS=", "GOPROXY=off", "GOTOOLCHAIN=local")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go vet . in benchmark/: %v\n%s", err, out)
	}
}
