// Package checkpoint implements durable incremental checkpoint/restore
// for agents and the coordinator. A snapshot is a manifest plus a set of
// content-addressed segments written to a pluggable Sink; segment
// payloads ride the same wire encoding as migration shipments, so disk
// and network never disagree about the format. The sealed-CSR segment is
// stable while the store's sealed runs are (between compactions and
// migration rounds) and dedups by content address, which is what makes the
// checkpoints incremental: a cadence tick in between rewrites only the
// delta tail and the vertex states.
//
// Durability enters the system through one surface: checkpoint.Config,
// threaded as cluster.Options.Durability / agent.Options.Checkpoint /
// directory.Options.Checkpoint. The command line spells it -durable and
// -ckpt-* (internal/config); this package reads no environment.
package checkpoint

import (
	"fmt"
	"time"
)

// Config tunes durable checkpointing. The zero value is disabled.
type Config struct {
	// Enabled is the master switch. Disabled costs one predicted branch
	// at each trigger site.
	Enabled bool
	// Dir is the durable root directory of the local sink. Required
	// when Enabled.
	Dir string
	// Key is the participant's stable durable identity ("agent-0",
	// "coordinator"). It survives restarts that change live agent IDs;
	// a restarting process restores the manifest written under its Key.
	// An agent's key comes from AgentKey.
	Key string
	// EverySteps checkpoints every N completed compute supersteps
	// (0 selects DefaultEverySteps). Batch boundaries and run completion
	// always checkpoint when Enabled.
	EverySteps int
	// Interval additionally checkpoints on a wall-clock cadence while
	// idle (0 disables the timer; supersteps and batch boundaries still
	// trigger).
	Interval time.Duration
}

// DefaultEverySteps is the superstep cadence when Config leaves
// EverySteps zero: frequent enough that a mid-run kill loses only a few
// supersteps of progress, rare enough that encoding stays off the
// critical path.
const DefaultEverySteps = 4

// AgentKey returns the durable identity of the agent in slot among n
// agents that share the base key (empty base means "agent"). Restores must
// never collide, so agents that share a base are told apart by slot
// ("agent-2"); only a base that one agent owns (n == 1) is used bare. Pass
// n = 0 when the count is open-ended, as for a harness that adds agents at
// will.
func AgentKey(base string, slot, n int) string {
	if base == "" {
		base = "agent"
	}
	if n == 1 {
		return base
	}
	return fmt.Sprintf("%s-%d", base, slot)
}
