package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"text/tabwriter"
	"time"

	"elga/internal/client"
	"elga/internal/config"
	"elga/internal/profile"
	"elga/internal/transport"
	"elga/internal/wire"
)

// runProfile implements `elga profile`: trigger a capture on one agent
// (or the whole fleet), wait for the artifacts to land in the
// coordinator store, fetch them, and write pprof files ready for
// `go tool pprof`. -list skips the capture and just renders the store's
// manifest.
func runProfile(args []string) error {
	fs := flag.NewFlagSet("profile", flag.ExitOnError)
	ccfg, err := config.CommonFromEnv()
	if err != nil {
		return err
	}
	master := fs.String("master", "127.0.0.1:7700", "DirectoryMaster address")
	agentID := fs.Uint64("agent", 0, "agent to profile (0 with -all profiles every agent)")
	all := fs.Bool("all", false, "profile every live agent")
	kinds := fs.String("kind", "cpu", "comma-separated profile kinds: cpu, heap, goroutine, mutex, block, allocs")
	steps := fs.Uint("steps", 0, "superstep-scoped window length (0 = immediate wall-clock capture)")
	seconds := fs.Float64("seconds", 0, "CPU capture wall window for immediate captures (0 = server default)")
	outDir := fs.String("o", ".", "directory to write fetched artifacts into")
	list := fs.Bool("list", false, "list stored artifacts instead of capturing")
	asJSON := fs.Bool("json", false, "emit machine-readable JSON")
	wait := fs.Duration("timeout", 60*time.Second, "how long to wait for artifacts to land")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := ccfg.Validate(); err != nil {
		return err
	}
	// Like status, profile must work on a quiet cluster: skip WaitReady.
	c, err := client.Start(client.Options{
		Config: ccfg.Cluster, Network: transport.NewTCP(), MasterAddr: *master,
		Trace: ccfg.Trace, Events: ccfg.Events,
	})
	if err != nil {
		return err
	}
	defer c.Close()
	if *list {
		arts, pending, err := c.ProfileList(client.CallOpts{})
		if err != nil {
			return err
		}
		return printArtifacts(os.Stdout, arts, pending, *asJSON)
	}
	if !*all && *agentID == 0 {
		return fmt.Errorf("profile: pick a target with -agent N or -all")
	}
	ks, err := parseKinds(*kinds)
	if err != nil {
		return err
	}
	target := *agentID
	if *all {
		target = 0
	}
	ids, err := c.ProfileCapture(target, ks, uint32(*steps), *seconds, client.CallOpts{})
	if err != nil {
		return err
	}
	if len(ids) == 0 {
		return fmt.Errorf("profile: no captures started (is the agent in the view?)")
	}
	fmt.Printf("requested %d capture(s); waiting up to %s\n", len(ids), *wait)
	arts, err := awaitCaptures(c, ids, *wait)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		return err
	}
	for i := range arts {
		a := &arts[i]
		data, err := c.ProfileFetch(a.Segment, client.CallOpts{})
		if err != nil {
			return err
		}
		name := fmt.Sprintf("%s-agent%d-%d.pb.gz", profile.KindName(a.Kind), a.AgentID, a.ID)
		path := filepath.Join(*outDir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s (%d bytes)  inspect with: go tool pprof %s\n", path, len(data), path)
	}
	return printArtifacts(os.Stdout, arts, 0, *asJSON)
}

// parseKinds converts a comma-separated kind list into wire kind codes.
func parseKinds(s string) ([]uint8, error) {
	var out []uint8
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		k, ok := profile.KindFromName(part)
		if !ok {
			return nil, fmt.Errorf("profile: unknown kind %q", part)
		}
		out = append(out, k)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("profile: no kinds given")
	}
	return out, nil
}

// awaitCaptures polls the store manifest until every requested capture
// ID has an artifact (or the deadline passes, returning what landed).
func awaitCaptures(c *client.Client, ids []uint64, wait time.Duration) ([]wire.ProfileArtifact, error) {
	want := make(map[uint64]bool, len(ids))
	for _, id := range ids {
		want[id] = true
	}
	deadline := time.Now().Add(wait)
	for {
		arts, _, err := c.ProfileList(client.CallOpts{})
		if err != nil {
			return nil, err
		}
		var got []wire.ProfileArtifact
		for i := range arts {
			if want[arts[i].ID] {
				got = append(got, arts[i])
			}
		}
		if len(got) == len(ids) {
			return got, nil
		}
		if time.Now().After(deadline) {
			if len(got) > 0 {
				fmt.Fprintf(os.Stderr, "profile: %d of %d captures landed before the deadline\n", len(got), len(ids))
				return got, nil
			}
			return nil, fmt.Errorf("profile: no artifacts landed within %s", wait)
		}
		time.Sleep(250 * time.Millisecond)
	}
}

// artifactJSON is the -json shape for one manifest entry.
type artifactJSON struct {
	ID        uint64 `json:"id"`
	AgentID   uint64 `json:"agent_id"`
	Kind      string `json:"kind"`
	Segment   string `json:"segment"`
	Length    uint64 `json:"length"`
	RunID     uint32 `json:"run_id,omitempty"`
	StepStart uint32 `json:"step_start,omitempty"`
	StepEnd   uint32 `json:"step_end,omitempty"`
	Verdict   string `json:"verdict,omitempty"`
	Cause     string `json:"cause,omitempty"`
	Trace     string `json:"trace,omitempty"`
	Time      string `json:"time,omitempty"`
}

func printArtifacts(w *os.File, arts []wire.ProfileArtifact, pending uint32, asJSON bool) error {
	if asJSON {
		out := struct {
			Artifacts []artifactJSON `json:"artifacts"`
			Pending   uint32         `json:"pending"`
		}{Pending: pending}
		for i := range arts {
			a := &arts[i]
			aj := artifactJSON{
				ID: a.ID, AgentID: a.AgentID, Kind: profile.KindName(a.Kind),
				Segment: a.Segment, Length: a.Length,
				RunID: a.RunID, StepStart: a.StepStart, StepEnd: a.StepEnd,
				Verdict: a.Verdict, Cause: a.Cause,
			}
			if a.TraceHi != 0 || a.TraceLo != 0 {
				aj.Trace = fmt.Sprintf("%016x%016x", a.TraceHi, a.TraceLo)
			}
			if a.WallNanos != 0 {
				aj.Time = time.Unix(0, int64(a.WallNanos)).UTC().Format(time.RFC3339Nano)
			}
			out.Artifacts = append(out.Artifacts, aj)
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(&out)
	}
	if len(arts) == 0 {
		fmt.Fprintf(w, "no artifacts (pending %d)\n", pending)
		return nil
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "ID\tAGENT\tKIND\tBYTES\tRUN\tSTEPS\tVERDICT\tCAUSE\tSEGMENT")
	for i := range arts {
		a := &arts[i]
		span := "-"
		if a.StepEnd != 0 || a.StepStart != 0 {
			span = fmt.Sprintf("%d-%d", a.StepStart, a.StepEnd)
		}
		verdict, cause := a.Verdict, a.Cause
		if verdict == "" {
			verdict = "-"
		}
		if cause == "" {
			cause = "-"
		}
		fmt.Fprintf(tw, "%d\t%d\t%s\t%d\t%d\t%s\t%s\t%s\t%s\n",
			a.ID, a.AgentID, profile.KindName(a.Kind), a.Length,
			a.RunID, span, verdict, cause, a.Segment)
	}
	tw.Flush()
	if pending > 0 {
		fmt.Fprintf(w, "pending captures: %d\n", pending)
	}
	return nil
}
