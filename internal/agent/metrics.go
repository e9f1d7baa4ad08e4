package agent

import (
	"sync/atomic"

	"elga/internal/metrics"
)

// agentMetrics holds the agent's hot-seam instrumentation handles. Every
// field stays nil when the agent was started without a Registry, and all
// handle methods are nil-safe, so an uninstrumented agent pays one branch
// per phase boundary and nothing per message.
type agentMetrics struct {
	phaseCompute *metrics.Histogram
	phaseCombine *metrics.Histogram
	barrierWait  *metrics.Histogram
	migBatch     *metrics.Histogram
	migBytes     *metrics.Counter
	frontierSize *metrics.Histogram
	ckptBuild    *metrics.Histogram
}

// initMetrics registers the agent's metric families on reg. Phase and
// migration histograms are label-shared across agents (one cluster-wide
// distribution each); per-agent counters and gauges carry the agent's
// address so multiple agents in one process stay distinct.
func (a *Agent) initMetrics(reg *metrics.Registry) {
	if reg == nil {
		return
	}
	a.m.phaseCompute = reg.Histogram("elga_superstep_phase_seconds",
		"Superstep phase processing duration by phase.",
		metrics.Labels{"phase": "compute"}, metrics.DurationBuckets)
	a.m.phaseCombine = reg.Histogram("elga_superstep_phase_seconds",
		"Superstep phase processing duration by phase.",
		metrics.Labels{"phase": "combine"}, metrics.DurationBuckets)
	a.m.barrierWait = reg.Histogram("elga_barrier_wait_seconds",
		"Wait between an agent's barrier vote and the next Advance.",
		nil, metrics.DurationBuckets)
	a.m.migBatch = reg.Histogram("elga_migration_batch_edges",
		"Edge copies per migration shipment.",
		nil, metrics.SizeBuckets)
	a.m.migBytes = reg.Counter("elga_migration_bytes_total",
		"Wire bytes of migration shipments sent.", nil)
	a.m.frontierSize = reg.Histogram("elga_delta_frontier_size",
		"Affected-vertex frontier per batch boundary (vertices a delta-driven recompute seeds from).",
		nil, metrics.SizeBuckets)
	a.m.ckptBuild = reg.Histogram("elga_ckpt_build_seconds",
		"Event-loop time to build one checkpoint snapshot (encode only; I/O is off-loop).",
		nil, metrics.DurationBuckets)

	// The registry outlives the agent: everything below captures the stats
	// block (or another small, self-contained object), never a.
	st := a.agentStats
	lbl := metrics.Labels{"addr": a.ep.Addr()}
	reg.CounterFunc("elga_agent_forwarded_total", "Packets forwarded to their correct owner.", lbl,
		func() uint64 { return atomic.LoadUint64(&st.statForwarded) })
	reg.CounterFunc("elga_agent_unroutable_total", "Messages dropped because their destination had no address in the installed view.", lbl,
		func() uint64 { return atomic.LoadUint64(&st.statUnroutable) })
	reg.CounterFunc("elga_agent_applied_total", "Edge changes applied to the local store.", lbl,
		func() uint64 { return atomic.LoadUint64(&st.statApplied) })
	reg.CounterFunc("elga_agent_queries_total", "Vertex queries answered.", lbl,
		func() uint64 { return atomic.LoadUint64(&st.statQueries) })
	reg.GaugeFunc("elga_agent_vertices", "Locally present vertices.", lbl,
		func() float64 { return float64(st.vertexCount.Load()) })
	reg.GaugeFunc("elga_agent_edge_copies", "Locally stored edge copies.", lbl,
		func() float64 { return float64(st.copyCount.Load()) })
	// Storage health: footprint per copy and compaction churn, from the
	// figures the event loop publishes, so scrapes never touch
	// single-threaded store state.
	reg.GaugeFunc("elga_graph_bytes_per_edge", "Estimated store bytes per locally stored edge copy.", lbl,
		func() float64 {
			copies := st.copyCount.Load()
			if copies == 0 {
				return 0
			}
			return float64(st.storeBytes.Load()) / float64(copies)
		})
	reg.CounterFunc("elga_graph_compactions_total", "Delta-log tail compactions folded into sealed CSR runs.", lbl,
		st.compactions.Load)
	// Backpressure counter for span shipping: sampled spans discarded
	// because the tracer's pending batch was full. Nil-tracer safe.
	reg.CounterFunc("elga_trace_dropped_spans_total",
		"Sampled trace spans dropped before shipping (backpressure).", lbl,
		a.tracer.Dropped)
	// Cut instrumentation: local vs cross-agent scatter volume and the
	// derived cut ratio. Zero without Options.CommAccounting.
	reg.CounterFunc("elga_scatter_local_msgs_total",
		"Scattered algorithm messages delivered to the sending agent.", lbl,
		st.localMsgs.Load)
	reg.CounterFunc("elga_scatter_remote_msgs_total",
		"Scattered algorithm messages sent to other agents.", lbl,
		st.remoteMsgs.Load)
	reg.CounterFunc("elga_scatter_remote_bytes_total",
		"Wire bytes of cross-agent scattered messages.", lbl,
		st.remoteBytes.Load)
	reg.GaugeFunc("elga_scatter_cut_ratio",
		"Fraction of scattered messages crossing agents (cumulative).", lbl,
		func() float64 {
			l, r := st.localMsgs.Load(), st.remoteMsgs.Load()
			if l+r == 0 {
				return 0
			}
			return float64(r) / float64(l+r)
		})
	// Durability instrumentation: the Writer's counters are atomics, so
	// scrapes never touch event-loop state. All zero while durability is
	// off (nil writer short-circuits).
	if w := a.ckpt.writer; w != nil {
		reg.CounterFunc("elga_ckpt_total", "Checkpoint snapshots made durable.", lbl,
			func() uint64 { c, _, _, _ := w.Stats(); return c })
		reg.CounterFunc("elga_ckpt_dropped_total", "Checkpoint snapshots dropped on a busy writer.", lbl,
			func() uint64 { _, d, _, _ := w.Stats(); return d })
		reg.CounterFunc("elga_ckpt_errors_total", "Checkpoint snapshots failed at the sink.", lbl,
			func() uint64 { _, _, e, _ := w.Stats(); return e })
		reg.CounterFunc("elga_ckpt_bytes_total", "Post-dedup checkpoint segment bytes written.", lbl,
			func() uint64 { _, _, _, b := w.Stats(); return b })
		reg.GaugeFunc("elga_ckpt_age_seconds", "Seconds since the last durable checkpoint.", lbl,
			func() float64 { return w.AgeSeconds() })
		// The restore, if any, happened before registration.
		restores, restoreSeconds := a.ckpt.restoreCount, a.ckpt.restoreSeconds
		reg.CounterFunc("elga_ckpt_restores_total", "Snapshot restores performed at startup.", lbl,
			func() uint64 { return restores })
		reg.GaugeFunc("elga_ckpt_restore_seconds", "Duration of the startup restore (0 = cold start).", lbl,
			func() float64 { return restoreSeconds })
	}
	metrics.RegisterRuntime(reg)
}
