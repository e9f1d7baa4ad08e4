package events

// Config is the switchboard for the structured event journal. The zero
// value is off; Enabled is the master switch for journalling
// (per-participant rings, shipping in reports, the coordinator timeline).
type Config struct {
	Enabled bool
}

// RingCapacity is each participant's journal capacity. Control-plane
// events are rare (joins, evictions, plans, checkpoints — not per-vertex
// traffic), so a few hundred records cover minutes of cluster history at
// tens of bytes each.
const RingCapacity = 256

// TimelineCapacity is the capacity of the coordinator's merged cluster
// timeline (the durable view that rides the coordinator checkpoint).
const TimelineCapacity = 1024
