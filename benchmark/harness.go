package main

import (
	"bufio"
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"elga/internal/algorithm"
	"elga/internal/cluster"
	"elga/internal/graph"
	"elga/internal/metrics"
	"elga/internal/stats"
	"elga/internal/transport"
)

// counters is a reading of every public counter a pass reports deltas of.
type counters struct {
	mem                        runtime.MemStats
	tr                         transport.Stats
	local, remote, remoteBytes uint64
	compute, combine, barrier  metrics.HistogramSnapshot
}

func readCounters(c *cluster.Cluster) counters {
	var k counters
	runtime.ReadMemStats(&k.mem)
	k.tr = c.TransportStats()
	k.local, k.remote, k.remoteBytes = c.CommStats()
	// Re-registering a histogram returns the live handle the agents
	// observe into.
	reg := c.Registry()
	phase := func(p string) metrics.HistogramSnapshot {
		return reg.Histogram("elga_superstep_phase_seconds", "", metrics.Labels{"phase": p}, metrics.DurationBuckets).Snapshot()
	}
	k.compute, k.combine = phase("compute"), phase("combine")
	k.barrier = reg.Histogram("elga_barrier_wait_seconds", "", nil, metrics.DurationBuckets).Snapshot()
	return k
}

// sub is a−b, or 0 when a counter restarted (an agent that left takes its
// counters with it).
func sub(a, b uint64) float64 {
	if a < b {
		return 0
	}
	return float64(a - b)
}

// histP50Ms is the median, in ms, of what a histogram observed between
// two snapshots.
func histP50Ms(after, before metrics.HistogramSnapshot) (float64, int) {
	d := after
	d.Counts = append([]uint64(nil), after.Counts...)
	if len(before.Counts) == len(d.Counts) {
		for i := range d.Counts {
			d.Counts[i] -= before.Counts[i]
		}
		d.Count -= before.Count
		d.Sum -= before.Sum
	}
	return d.Quantile(0.5) * 1e3, int(d.Count)
}

// scrape reads every sample of one metric family from the registry's
// Prometheus text: gauge and counter funcs have no other public reader.
// The result maps the label set to the value.
func scrape(reg *metrics.Registry, family string) map[string]float64 {
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		return nil
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, family) {
			continue
		}
		rest := line[len(family):]
		if rest == "" || (rest[0] != '{' && rest[0] != ' ') {
			continue
		}
		sp := strings.LastIndexByte(rest, ' ')
		v, err := strconv.ParseFloat(rest[sp+1:], 64)
		if err == nil {
			out[rest[:sp]] = v
		}
	}
	return out
}

// pass is everything one pass over a workload measured, pooled over its
// rounds.
type pass struct {
	tally
	// setupRawS is each round's set-up as the clock read it; setupS and
	// opCalMs are the set-ups and the operations (tally.opMs) calibrated by
	// the probe readings taken alongside them. queryUs is as the clock read
	// it.
	setupRawS, setupS []float64
	opCalMs           []float64
	queryUs           []float64
	probes            []probeReading
	// heapLiveMB is runtime.MemStats.HeapAlloc after a forced GC when the
	// pass's first set-up (load + warm-up) is done. That is a fixed point in
	// the workload — a reading at the end of a timed loop would grow with
	// however many operations the machine managed — in a process that has
	// stopped no cluster yet: a stopped cluster stays reachable from its
	// stopped-but-unexpired 30 s timers until the runtime sweeps them, which
	// made later readings bimodal. It includes the harness's own inputs.
	// bytesPerEdgeCopy is the store's footprint right after the first bulk
	// load.
	heapLiveMB       float64
	bytesPerEdgeCopy float64

	// The rest is read by a traced pass only, which has one round.
	// heapGrowthKB is what the operation loop added to the live heap, per
	// operation. endBytesPerEdgeCopy, compactions and loadSkew are read
	// after the operation loop: what the operations left behind.
	heapGrowthKB        float64
	endBytesPerEdgeCopy float64
	compactions         float64
	loadSkew            float64
	before, after       counters
	sp                  *spans
}

func (p *pass) steps() float64 { return float64(len(p.stepMs)) }

// runOp performs one operation of inst with its untimed bookkeeping.
func runOp(inst instance, e *env) error {
	inst.prepare()
	id := e.sp.start("op", -1)
	start := time.Now()
	work, workWall, err := inst.op(id)
	wall := time.Since(start)
	e.sp.end(id)
	e.t.attempted++
	if err != nil {
		e.t.fail("%v", err)
		return err
	}
	if workWall == 0 {
		workWall = wall
	}
	e.t.opMs = append(e.t.opMs, ms(wall))
	e.t.work += work
	e.t.workWall += workWall
	inst.settle()
	return nil
}

// runPass measures a workload for budget, split evenly over `rounds`
// rounds. Each round is a run of its own — a fresh set-up, the operation
// loop, the reference check, the query tail — so one invocation reports
// the median over several interleaved runs, and no set-up is thrown away.
func runPass(w workload, sc scale, seed int64, traced bool, rounds int, budget time.Duration) (*pass, error) {
	p := &pass{}
	if traced {
		p.sp = newSpans()
	}
	e := &env{sc: sc, seed: seed, traced: traced, sp: p.sp}
	for r := 0; r < rounds; r++ {
		if err := p.round(w, e, r == 0, budget/time.Duration(rounds)); err != nil {
			return p, err
		}
	}
	return p, nil
}

// round sets the workload up, runs its operation in a closed loop for 90%
// of budget, then spends the remaining 10% on the read-only query tail, and
// checks every answer against the workload's reference.
func (p *pass) round(w workload, e *env, first bool, budget time.Duration) error {
	sc := e.sc
	// Warm-up operations are discarded; their checks still count.
	var warm tally
	e.t = &warm
	mark := 0
	if p.sp != nil {
		mark = len(p.sp.all)
	}
	beforeSetup := takeProbe()
	start := time.Now()
	inst, err := w.setup(e)
	if err != nil {
		p.attempted++
		p.fail("set-up: %v", err)
		return err
	}
	defer inst.shutdown()
	for k := 0; k < sc.WarmOps && !inst.exhausted() && err == nil; k++ {
		err = runOp(inst, e)
	}
	setupS := time.Since(start).Seconds()
	// One reading ends the set-up and begins the loop: a reading taken
	// straight after another finds the probe's array still cached.
	loopProbes := []probeReading{takeProbe()}
	p.setupRawS = append(p.setupRawS, setupS)
	p.setupS = append(p.setupS, setupS/speedFactor([]probeReading{beforeSetup, loopProbes[0]}))
	p.attempted += warm.attempted
	p.failed += warm.failed
	if err != nil {
		return err
	}
	e.t = &p.tally
	if p.sp != nil {
		p.sp.all = p.sp.all[:mark]
	}
	c := inst.core().c
	if first {
		p.heapLiveMB = heapLiveMB()
		p.bytesPerEdgeCopy = inst.core().loadedBytesPerCopy
	}

	var loopStartMB float64
	if e.traced {
		loopStartMB = heapLiveMB()
		p.before = readCounters(c)
	}
	ops := len(p.opMs)
	loopEnd := time.Now().Add(budget * 9 / 10)
	lastProbe := time.Now()
	for n := 0; !inst.exhausted() && (n < sc.MaxOps || sc.MaxOps == 0 && time.Now().Before(loopEnd)); n++ {
		if err := runOp(inst, e); err != nil {
			return err
		}
		if time.Since(lastProbe) >= probeEvery {
			loopProbes = append(loopProbes, takeProbe())
			lastProbe = time.Now()
		}
	}
	loopProbes = append(loopProbes, takeProbe())
	p.probes = append(p.probes, loopProbes...)
	factor := speedFactor(loopProbes)
	for _, raw := range p.opMs[ops:] {
		p.opCalMs = append(p.opCalMs, raw/factor)
	}
	if e.traced {
		p.after = readCounters(c)
		p.heapGrowthKB = ratio((heapLiveMB()-loopStartMB)*1024, float64(len(p.opMs)-ops))
	}

	if err := inst.finish(); err != nil {
		p.attempted++
		p.fail("%v", err)
		return err
	}
	if e.traced {
		p.readStore(c)
	}

	// The reference is computed untimed, between the loop and the tail;
	// its vertices are the tail's query population.
	want, tol := inst.want()
	pool := make([]graph.VertexID, 0, len(want))
	for v := range want {
		pool = append(pool, v)
	}
	sort.Slice(pool, func(i, j int) bool { return pool[i] < pool[j] })
	runtime.GC() // so the reference's garbage is not collected during the tail
	rng := rand.New(rand.NewSource(e.seed))
	cl := inst.core().cl
	tailEnd := time.Now().Add(budget / 10)
	for i := 0; i < sc.MinTailQueries || sc.MaxOps == 0 && time.Now().Before(tailEnd); i++ {
		v := pool[rng.Intn(len(pool))]
		start := time.Now()
		got, found, err := cl.Query(v)
		p.queryUs = append(p.queryUs, us(time.Since(start)))
		p.attempted++
		switch {
		case err != nil:
			p.fail("query %d: %v", v, err)
			return err
		case !found:
			p.fail("vertex %d not found", v)
		case !matches(got, want[v], tol):
			p.fail("vertex %d answered %#x, reference %#x", v, got, want[v])
		}
	}
	return nil
}

// heapLiveMB forces a collection and reads the bytes of live objects
// (HeapInuse would add span fragmentation, which is bimodal here).
func heapLiveMB() float64 {
	// Twice: a sync.Pool's contents survive one collection.
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// matches compares an answer with the reference: exact words, or floats
// within tol.
func matches(got, want algorithm.Word, tol float64) bool {
	if tol == 0 {
		return got == want
	}
	return math.Abs(got.F64()-want.F64()) <= tol
}

// bytesPerEdgeCopy reads elga_graph_bytes_per_edge off the registry,
// copy-weighted over agents.
func bytesPerEdgeCopy(c *cluster.Cluster) float64 {
	reg := c.Registry()
	copies := scrape(reg, "elga_agent_edge_copies")
	var bytes, total float64
	for labels, bpe := range scrape(reg, "elga_graph_bytes_per_edge") {
		bytes += bpe * copies[labels]
		total += copies[labels]
	}
	return ratio(bytes, total)
}

// readStore reads what the operation loop left in the stores: footprint,
// total compactions, and load skew (largest live agent over the mean: the
// slowest agent sets the step).
func (p *pass) readStore(c *cluster.Cluster) {
	p.endBytesPerEdgeCopy = bytesPerEdgeCopy(c)
	for _, n := range scrape(c.Registry(), "elga_graph_compactions_total") {
		p.compactions += n
	}
	var max, sum float64
	live := c.EdgeCounts()
	for _, n := range live {
		sum += float64(n)
		if float64(n) > max {
			max = float64(n)
		}
	}
	p.loadSkew = ratio(max, sum/float64(len(live)))
}

// endToEnd is the untraced pass's user-visible metrics. The two times are
// calibrated (probe.go); the clock's own readings are per-layer metrics.
func endToEnd(p *pass) []sample {
	return []sample{
		{"setup_s", median(p.setupS), "s", len(p.setupS)},
		{"op_cal_ms_p50", median(p.opCalMs), "ms", len(p.opCalMs)},
		{"heap_live_mb", p.heapLiveMB, "MiB", 1},
		{"bytes_per_edge_copy", p.bytesPerEdgeCopy, "B", 1},
	}
}

// perStep divides by the pass's superstep count (0 when it ran none).
func (p *pass) perStep(x float64) float64 {
	if p.steps() == 0 {
		return 0
	}
	return x / p.steps()
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// perLayer assembles the traced pass's layer metrics: counters read
// around the operation loop, the benchmark's spans, the micro-pass, and
// the reconciliation of the micro costs against the measured superstep.
func perLayer(w workload, plain, traced *pass, micro []sample) []sample {
	a, b := traced.after, traced.before
	steps := int(traced.steps())
	nOps := len(traced.opMs)
	out := append([]sample(nil), micro...)
	add := func(name string, v float64, unit string, n int) {
		out = append(out, sample{name, v, unit, n})
	}
	mget := func(name string) float64 {
		for _, s := range micro {
			if s.Name == name {
				return s.Value
			}
		}
		return 0
	}

	framesOut := sub(a.tr.FramesOut, b.tr.FramesOut)
	add("transport.frames_per_step", traced.perStep(framesOut), "count", steps)
	add("transport.frames_per_write", ratio(framesOut, sub(a.tr.ConnWrites, b.tr.ConnWrites)), "ratio", nOps)
	add("transport.enqueue_stalls", sub(a.tr.EnqueueStalls, b.tr.EnqueueStalls), "count", nOps)
	add("transport.retransmits", sub(a.tr.Retransmits, b.tr.Retransmits), "count", nOps)

	add("graph.compactions", traced.compactions, "count", 1)
	add("graph.bytes_per_edge_copy", traced.endBytesPerEdgeCopy, "B", 1)

	v, n := histP50Ms(a.compute, b.compute)
	add("agent.compute_ms_p50", v, "ms", n)
	v, n = histP50Ms(a.combine, b.combine)
	add("agent.combine_ms_p50", v, "ms", n)
	v, n = histP50Ms(a.barrier, b.barrier)
	add("agent.barrier_wait_ms_p50", v, "ms", n)
	add("agent.superstep_ms_p50", percentile(traced.stepMs, 0.50), "ms", steps)
	add("agent.superstep_ms_p95", percentile(traced.stepMs, 0.95), "ms", steps)
	add("agent.allocs_per_step", traced.perStep(sub(a.mem.Mallocs, b.mem.Mallocs)), "count", steps)
	add("agent.alloc_bytes_per_step", traced.perStep(sub(a.mem.TotalAlloc, b.mem.TotalAlloc)), "B", steps)
	local, remote := sub(a.local, b.local), sub(a.remote, b.remote)
	add("agent.msgs_local_per_step", traced.perStep(local), "count", steps)
	add("agent.msgs_remote_per_step", traced.perStep(remote), "count", steps)
	add("agent.remote_bytes_per_step", traced.perStep(sub(a.remoteBytes, b.remoteBytes)), "B", steps)
	add("agent.cut_ratio", ratio(remote, local+remote), "ratio", steps)
	add("agent.load_skew", traced.loadSkew, "ratio", 1)
	add("agent.migrated_copies_per_join", median(traced.movedCopies), "count", len(traced.movedCopies))
	add("agent.moved_fraction", median(traced.movedFrac), "ratio", len(traced.movedFrac))
	add("consistent.predicted_moved_fraction", median(traced.predictedFrac), "ratio", len(traced.predictedFrac))
	add("directory.rebalance_ms_p50", median(traced.rebalanceMs), "ms", len(traced.rebalanceMs))

	add("client.setup_raw_s", median(traced.setupRawS), "s", len(traced.setupRawS))
	add("client.op_raw_ms_p50", median(traced.opMs), "ms", nOps)
	add("client.op_ms_p95", percentile(traced.opMs, 0.95), "ms", nOps)
	add("client.work_per_s", ratio(traced.work, traced.workWall.Seconds()), "1/s", nOps)
	add("client.query_us_p50", median(traced.queryUs), "us", len(traced.queryUs))
	add("client.query_us_p99", percentile(traced.queryUs, 0.99), "us", len(traced.queryUs))
	add("client.run_overhead_us", median(traced.runOverUs), "us", len(traced.runOverUs))

	// The benchmark's own spans. parts_over_op is the sum of the child
	// spans' medians over the operation's median: how much of the
	// operation the spans account for.
	var parts float64
	for _, name := range []string{"stream_send", "seal", "run", "query", "churn_send", "churn_seal", "join", "leave"} {
		d := traced.sp.durationsMs(name)
		parts += median(d)
		add("span."+name+"_ms_p50", median(d), "ms", len(d))
	}
	add("span.parts_over_op", ratio(parts, median(traced.opMs)), "ratio", nOps)

	// Reconciliation: the micro cost of each layer times its in-workload
	// count per superstep, CPU rows spread over GOMAXPROCS, plus the
	// barrier floor of the workload's transport, against the mean step
	// (the counts are per-step means too).
	var residual float64
	if step := stats.Mean(traced.stepMs); step > 0 {
		cpus := float64(runtime.GOMAXPROCS(0))
		msgs := traced.perStep(local + remote)
		cpuNs := msgs*(mget("algorithm.kernel_ns_per_edge")+mget("graph.cursor_ns_per_edge")+mget("route.edge_owner_ns_warm")) +
			traced.perStep(remote)*(mget("wire.encode_vmsg256_ns")+mget("wire.decode_vmsg256_ns"))/256 +
			traced.perStep(framesOut)*mget("transport.push_"+w.Transport+"_ns_per_frame")
		floor := mget("directory.step_floor_us_"+w.Transport) / 1e3
		residual = 100 * (step - cpuNs/1e6/cpus - floor) / step
	}
	add("layer.superstep_residual_pct", residual, "%", steps)
	// The cluster's step over the plain single-threaded engine's, where
	// both run the same program on the same graph.
	var overhead float64
	if w.SameAsBSP {
		overhead = ratio(percentile(traced.stepMs, 0.50), mget("algorithm.bsp_step_ms"))
	}
	add("agent.overhead_x", overhead, "ratio", steps)

	add("runtime.heap_growth_kb_per_op", traced.heapGrowthKB, "KiB", nOps)
	add("runtime.gc_cycles", float64(a.mem.NumGC-b.mem.NumGC), "count", nOps)
	add("runtime.gc_pause_ms_total", float64(a.mem.PauseTotalNs-b.mem.PauseTotalNs)/1e6, "ms", nOps)
	add("trace.overhead_pct", 100*ratio(median(traced.opCalMs)-median(plain.opCalMs), median(plain.opCalMs)), "%", nOps+len(plain.opMs))

	// What the probe read during the traced operation loop.
	part := func(get func(probeReading) float64) float64 {
		xs := make([]float64, len(traced.probes))
		for i, r := range traced.probes {
			xs[i] = get(r)
		}
		return median(xs)
	}
	add("probe.mem_ms", part(func(r probeReading) float64 { return r.mem }), "ms", len(traced.probes))
	add("probe.wake_ms", part(func(r probeReading) float64 { return r.wake }), "ms", len(traced.probes))
	add("probe.tcp_ms", part(func(r probeReading) float64 { return r.tcp }), "ms", len(traced.probes))
	add("probe.speed_factor", speedFactor(traced.probes), "ratio", len(traced.probes))
	return out
}

func printSamples(title string, samples []sample) {
	fmt.Printf("%s\n", title)
	for _, s := range samples {
		fmt.Printf("  %-40s %16.4f %-6s n=%d\n", s.Name, s.Value, s.Unit, s.N)
	}
}
