package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"text/tabwriter"
	"time"

	"elga/internal/client"
	"elga/internal/config"
	"elga/internal/events"
	"elga/internal/transport"
	"elga/internal/wire"
)

// runStatus implements `elga status`: one TStatus round-trip to the
// coordinator rendered as a per-agent health table plus the newest slice
// of the merged event timeline. -watch refreshes until interrupted,
// -json emits the machine-readable shape instead.
func runStatus(args []string) error {
	fs := flag.NewFlagSet("status", flag.ExitOnError)
	// Status is a read-only introspection tool, so it takes only -master
	// plus its own rendering flags; the shared composite (which spells
	// -events as the journal on/off switch) resolves from the environment.
	ccfg, err := config.CommonFromEnv()
	if err != nil {
		return err
	}
	master := fs.String("master", "127.0.0.1:7700", "DirectoryMaster address")
	nEvents := fs.Uint("events", 16, "timeline events to show (0 = server default)")
	watch := fs.Bool("watch", false, "refresh until interrupted")
	every := fs.Duration("every", 2*time.Second, "refresh interval with -watch")
	asJSON := fs.Bool("json", false, "emit machine-readable JSON")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := ccfg.Validate(); err != nil {
		return err
	}
	// Status must work on an empty cluster (no agents yet), so the client
	// skips the usual WaitReady gate.
	c, err := client.Start(client.Options{
		Config: ccfg.Cluster, Network: transport.NewTCP(), MasterAddr: *master,
		Trace: ccfg.Trace, Events: ccfg.Events,
	})
	if err != nil {
		return err
	}
	defer c.Close()
	sig := make(chan os.Signal, 1)
	if *watch {
		signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	}
	for {
		s, err := c.StatusEvents(uint32(*nEvents), client.CallOpts{})
		if err != nil {
			return err
		}
		if *asJSON {
			if err := writeStatusJSON(os.Stdout, s); err != nil {
				return err
			}
		} else {
			printStatus(os.Stdout, s)
		}
		if !*watch {
			return nil
		}
		select {
		case <-sig:
			return nil
		case <-time.After(*every):
		}
	}
}

func printStatus(w *os.File, s *wire.StatusReply) {
	run := "idle"
	if s.Running {
		run = fmt.Sprintf("run %d step %d", s.RunID, s.Step)
	}
	fmt.Fprintf(w, "epoch %d  batch %d  vertices %d  %s  events %d (dropped %d)\n",
		s.Epoch, s.BatchID, s.Vertices, run, s.EventSeq, s.EventsDropped)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "AGENT\tADDR\tSTATUS\tSCORE\tCAUSE\tSTEP\tCOMBINE\tBARRIER\tINBOX\tQUEUE\tREXMIT\tEVENTS\tHB-AGE")
	for i := range s.Agents {
		a := &s.Agents[i]
		cause := a.Cause
		if cause == "" {
			cause = "-"
		}
		fmt.Fprintf(tw, "%d\t%s\t%s\t%.2f\t%s\t%s\t%s\t%s\t%.1f\t%.1f\t%.1f\t%d\t%s\n",
			a.AgentID, a.Addr, wire.HealthName(a.Status), a.Score, cause,
			fmtSeconds(a.StepSeconds), fmtSeconds(a.CombineSeconds), fmtSeconds(a.BarrierSeconds),
			a.InboxDepth, a.QueueDepth, a.Retransmits,
			a.Events, time.Duration(a.HeartbeatAgeNanos).Round(time.Millisecond))
	}
	tw.Flush()
	if len(s.Timeline) > 0 {
		fmt.Fprintf(w, "timeline (newest %d):\n", len(s.Timeline))
		for i := range s.Timeline {
			fmt.Fprintf(w, "  %s\n", formatEvent(&s.Timeline[i]))
		}
	}
	fmt.Fprintln(w)
}

// fmtSeconds renders a phase EMA compactly (ms below a second).
func fmtSeconds(s float64) string {
	if s == 0 {
		return "-"
	}
	if s < 1 {
		return fmt.Sprintf("%.1fms", s*1000)
	}
	return fmt.Sprintf("%.2fs", s)
}

// formatEvent renders one timeline record as a single log-style line.
func formatEvent(r *events.Record) string {
	out := fmt.Sprintf("#%d %s %s %s %s",
		r.Seq, time.Unix(0, r.Time).Format("15:04:05.000"),
		r.Level.String(), r.Proc, r.Kind)
	for i := 0; i < int(r.NFields); i++ {
		f := &r.Fields[i]
		out += fmt.Sprintf(" %s=%s", f.Key, f.Value())
	}
	if r.TraceHi != 0 || r.TraceLo != 0 {
		out += fmt.Sprintf(" trace=%016x%016x", r.TraceHi, r.TraceLo)
	}
	return out
}

// JSON shapes for -json: stable lowercase keys independent of the wire
// struct field names.
type statusJSON struct {
	Epoch         uint64            `json:"epoch"`
	BatchID       uint64            `json:"batch_id"`
	Vertices      uint64            `json:"vertices"`
	Running       bool              `json:"running"`
	RunID         uint32            `json:"run_id,omitempty"`
	Step          uint32            `json:"step,omitempty"`
	EventSeq      uint64            `json:"event_seq"`
	EventsDropped uint64            `json:"events_dropped"`
	Agents        []agentHealthJSON `json:"agents"`
	Timeline      []eventJSON       `json:"timeline,omitempty"`
}

type agentHealthJSON struct {
	AgentID        uint64  `json:"agent_id"`
	Addr           string  `json:"addr"`
	Status         string  `json:"status"`
	Score          float64 `json:"score"`
	Cause          string  `json:"cause,omitempty"`
	StepSeconds    float64 `json:"step_seconds"`
	CombineSeconds float64 `json:"combine_seconds"`
	BarrierSeconds float64 `json:"barrier_seconds"`
	InboxDepth     float64 `json:"inbox_depth"`
	QueueDepth     float64 `json:"queue_depth"`
	Retransmits    float64 `json:"retransmits"`
	Events         uint64  `json:"events"`
	HeartbeatAgeMS float64 `json:"heartbeat_age_ms"`
}

type eventJSON struct {
	Seq    uint64            `json:"seq"`
	Time   string            `json:"time"`
	Level  string            `json:"level"`
	Proc   string            `json:"proc"`
	Kind   string            `json:"kind"`
	Fields map[string]string `json:"fields,omitempty"`
	Trace  string            `json:"trace,omitempty"`
	RunID  uint32            `json:"run_id,omitempty"`
	Step   uint32            `json:"step,omitempty"`
}

func writeStatusJSON(w *os.File, s *wire.StatusReply) error {
	out := statusJSON{
		Epoch: s.Epoch, BatchID: s.BatchID, Vertices: s.Vertices,
		Running: s.Running, RunID: s.RunID, Step: s.Step,
		EventSeq: s.EventSeq, EventsDropped: s.EventsDropped,
		Agents: make([]agentHealthJSON, 0, len(s.Agents)),
	}
	for i := range s.Agents {
		a := &s.Agents[i]
		out.Agents = append(out.Agents, agentHealthJSON{
			AgentID: a.AgentID, Addr: a.Addr, Status: wire.HealthName(a.Status),
			Score: a.Score, Cause: a.Cause,
			StepSeconds: a.StepSeconds, CombineSeconds: a.CombineSeconds,
			BarrierSeconds: a.BarrierSeconds, InboxDepth: a.InboxDepth,
			QueueDepth: a.QueueDepth, Retransmits: a.Retransmits,
			Events:         a.Events,
			HeartbeatAgeMS: float64(a.HeartbeatAgeNanos) / 1e6,
		})
	}
	for i := range s.Timeline {
		r := &s.Timeline[i]
		ev := eventJSON{
			Seq: r.Seq, Time: time.Unix(0, r.Time).UTC().Format(time.RFC3339Nano),
			Level: r.Level.String(), Proc: r.Proc, Kind: r.Kind,
			RunID: r.RunID, Step: r.Step,
		}
		if r.NFields > 0 {
			ev.Fields = make(map[string]string, r.NFields)
			for j := 0; j < int(r.NFields); j++ {
				ev.Fields[r.Fields[j].Key] = r.Fields[j].Value()
			}
		}
		if r.TraceHi != 0 || r.TraceLo != 0 {
			ev.Trace = fmt.Sprintf("%016x%016x", r.TraceHi, r.TraceLo)
		}
		out.Timeline = append(out.Timeline, ev)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(&out)
}
