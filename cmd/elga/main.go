// Command elga runs ElGA roles over TCP: the DirectoryMaster, Directory
// servers, Agents, Streamers, and client operations. It is the deployment
// face of the system — the artifact appendix's pdsh-launched executables.
//
// A minimal cluster on one machine:
//
//	elga master -addr 127.0.0.1:7700
//	elga directory -master 127.0.0.1:7700
//	elga agent -master 127.0.0.1:7700 -n 4
//	elga stream -master 127.0.0.1:7700 -file graph.txt
//	elga run -master 127.0.0.1:7700 -algo pagerank -steps 10 -scratch
//	elga query -master 127.0.0.1:7700 -vertex 42
//
// Agents capture SIGINT for a graceful elastic departure: they migrate
// their edges away and exit once the directory confirms the rebalance,
// exactly as the paper's artifact describes.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"elga/internal/agent"
	"elga/internal/algorithm"
	"elga/internal/checkpoint"
	"elga/internal/client"
	"elga/internal/config"
	"elga/internal/directory"
	"elga/internal/graph"
	"elga/internal/metrics"
	"elga/internal/streamer"
	"elga/internal/trace"
	"elga/internal/trace/collect"
	"elga/internal/transport"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	cmd, args := os.Args[1], os.Args[2:]
	var err error
	switch cmd {
	case "master":
		err = runMaster(args)
	case "directory":
		err = runDirectory(args)
	case "agent":
		err = runAgent(args)
	case "stream":
		err = runStream(args)
	case "run":
		err = runAlgo(args)
	case "seal":
		err = runSeal(args)
	case "query":
		err = runQuery(args)
	case "status":
		err = runStatus(args)
	case "profile":
		err = runProfile(args)
	case "help", "-h", "--help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "elga: unknown command %q\n", cmd)
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "elga:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprint(os.Stderr, `usage: elga <command> [flags]

commands:
  master     run the DirectoryMaster bootstrap service
  directory  run a Directory server
  agent      run one or more Agents (SIGINT leaves gracefully)
  stream     stream an edge list file into the cluster
  run        execute an algorithm (pagerank, ppr, wcc, bfs, sssp, degree; -async)
  seal       force a batch boundary (apply + rebalance)
  query      read one vertex's result
  status     show per-agent health and the cluster event timeline (-watch, -events N, -json)
  profile    capture pprof profiles from agents (-agent N|-all, -kind, -steps N, -o dir, -list)
`)
}

// commonFlags registers the master address plus the shared composite;
// config.Parse then fills it from the environment and the flags, a flag
// overriding its variable.
func commonFlags(fs *flag.FlagSet, c *config.Common) (master *string) {
	master = fs.String("master", "127.0.0.1:7700", "DirectoryMaster address")
	c.RegisterFlags(fs)
	return master
}

func runMaster(args []string) error {
	fs := flag.NewFlagSet("master", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:7700", "listen address")
	if err := fs.Parse(args); err != nil {
		return err
	}
	m, err := directory.StartMaster(transport.NewTCP(), *addr)
	if err != nil {
		return err
	}
	fmt.Printf("elga master listening on %s\n", m.Addr())
	waitForSignal()
	m.Close()
	return nil
}

func runDirectory(args []string) error {
	fs := flag.NewFlagSet("directory", flag.ExitOnError)
	dcfg := config.Directory{Common: config.DefaultCommon()}
	master := fs.String("master", "127.0.0.1:7700", "DirectoryMaster address")
	dcfg.RegisterFlags(fs)
	addr := fs.String("addr", "", "listen address (empty = ephemeral)")
	if err := config.Parse(fs, args); err != nil {
		return err
	}
	if dcfg.TraceOut != "" {
		dcfg.Trace.Enabled = true
	}
	if err := dcfg.Validate(); err != nil {
		return err
	}
	reg, srv, err := startMetrics(dcfg.MetricsAddr)
	if err != nil {
		return err
	}
	if srv != nil {
		defer srv.Close()
	}
	// The coordinator hosts the collector; relays never receive span
	// batches, so the sink simply stays idle there.
	var col *collect.Collector
	var sink func(string, []trace.SpanRecord)
	if dcfg.Trace.Enabled {
		col = collect.New()
		sink = col.Add
	}
	d, err := directory.Start(directory.Options{
		Config: dcfg.Cluster, Network: transport.NewTCP(), MasterAddr: *master, Addr: *addr,
		Metrics: reg, Trace: dcfg.Trace, SpanSink: sink,
		Checkpoint: dcfg.Durability, Events: dcfg.Events, Profile: dcfg.Profile,
	})
	if err != nil {
		return err
	}
	role := "relay"
	if d.IsCoordinator() {
		role = "coordinator"
	}
	fmt.Printf("elga directory (%s) listening on %s\n", role, d.Addr())
	waitForSignal()
	d.Close()
	if dcfg.TraceOut != "" && col != nil {
		f, err := os.Create(dcfg.TraceOut)
		if err != nil {
			return err
		}
		if err := col.WriteChromeTrace(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("elga: wrote trace to %s (%d traces, %d spans)\n", dcfg.TraceOut, col.TraceCount(), col.SpanCount())
		fmt.Print(col.Summary())
	}
	return nil
}

func runAgent(args []string) error {
	fs := flag.NewFlagSet("agent", flag.ExitOnError)
	acfg := config.DefaultCommon()
	master := commonFlags(fs, &acfg)
	n := fs.Int("n", 1, "number of agents to run in this process")
	if err := config.Parse(fs, args); err != nil {
		return err
	}
	if err := acfg.Validate(); err != nil {
		return err
	}
	reg, srv, err := startMetrics(acfg.MetricsAddr)
	if err != nil {
		return err
	}
	if srv != nil {
		defer srv.Close()
	}
	agents := make([]*agent.Agent, 0, *n)
	for i := 0; i < *n; i++ {
		ckpt := acfg.Durability
		ckpt.Key = checkpoint.AgentKey(ckpt.Key, i, *n)
		a, err := agent.Start(agent.Options{
			Config: acfg.Cluster, Network: transport.NewTCP(), MasterAddr: *master, DirIndex: i,
			Metrics: reg, Trace: acfg.Trace, Checkpoint: ckpt, Events: acfg.Events, Profile: acfg.Profile,
		})
		if err != nil {
			return err
		}
		fmt.Printf("elga agent %d listening on %s\n", a.ID(), a.Addr())
		agents = append(agents, a)
	}
	waitForSignal()
	fmt.Println("elga: SIGINT received, leaving gracefully (migrating edges)")
	for _, a := range agents {
		if err := a.Leave(); err != nil {
			fmt.Fprintln(os.Stderr, "elga: leave:", err)
		}
	}
	for _, a := range agents {
		select {
		case <-a.Done():
		case <-time.After(acfg.Cluster.RequestTimeout):
			a.Close()
		}
	}
	return nil
}

func runStream(args []string) error {
	fs := flag.NewFlagSet("stream", flag.ExitOnError)
	ccfg := config.DefaultCommon()
	master := commonFlags(fs, &ccfg)
	file := fs.String("file", "", "edge list file ('-' for stdin)")
	deleteMode := fs.Bool("delete", false, "stream deletions instead of insertions")
	if err := config.Parse(fs, args); err != nil {
		return err
	}
	if err := ccfg.Validate(); err != nil {
		return err
	}
	var in *os.File
	if *file == "" || *file == "-" {
		in = os.Stdin
	} else {
		f, err := os.Open(*file)
		if err != nil {
			return err
		}
		defer f.Close()
		in = f
	}
	el, err := graph.ReadEdgeList(bufio.NewReader(in))
	if err != nil {
		return err
	}
	s, err := streamer.Start(streamer.Options{Config: ccfg.Cluster, Network: transport.NewTCP(), MasterAddr: *master})
	if err != nil {
		return err
	}
	if err := s.WaitReady(); err != nil {
		return err
	}
	action := graph.Insert
	if *deleteMode {
		action = graph.Delete
	}
	start := time.Now()
	for _, e := range el {
		if err := s.Send(graph.Change{Action: action, Src: e.Src, Dst: e.Dst}); err != nil {
			return err
		}
	}
	if err := s.Close(); err != nil {
		return err
	}
	dur := time.Since(start)
	fmt.Printf("streamed %d changes in %s (%.0f edges/s)\n",
		len(el), dur.Round(time.Millisecond), float64(len(el))/dur.Seconds())
	return nil
}

func newClient(master string, cfg config.Config, tcfg trace.Config) (*client.Client, error) {
	c, err := client.Start(client.Options{Config: cfg, Network: transport.NewTCP(), MasterAddr: master, Trace: tcfg})
	if err != nil {
		return nil, err
	}
	if err := c.WaitReady(); err != nil {
		c.Close()
		return nil, err
	}
	return c, nil
}

func runAlgo(args []string) error {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	ccfg := config.DefaultCommon()
	master := commonFlags(fs, &ccfg)
	algo := fs.String("algo", "pagerank", "algorithm: pagerank, ppr, wcc, bfs, sssp, degree")
	async := fs.Bool("async", false, "asynchronous execution (wcc/bfs/sssp only)")
	steps := fs.Uint("steps", 0, "max supersteps (0 = program default)")
	eps := fs.Float64("epsilon", 0, "residual halt threshold (pagerank)")
	scratch := fs.Bool("scratch", false, "run from scratch instead of incrementally (required for pagerank and ppr)")
	source := fs.Uint64("source", 0, "traversal source vertex")
	if err := config.Parse(fs, args); err != nil {
		return err
	}
	if err := ccfg.Validate(); err != nil {
		return err
	}
	c, err := newClient(*master, ccfg.Cluster, ccfg.Trace)
	if err != nil {
		return err
	}
	defer c.Close()
	if err := c.Seal(); err != nil {
		return err
	}
	st, err := c.Run(client.RunSpec{
		Algo: *algo, Async: *async, MaxSteps: uint32(*steps), Epsilon: *eps,
		FromScratch: *scratch, Source: graph.VertexID(*source),
	})
	if err != nil {
		return err
	}
	fmt.Printf("%s: %d supersteps in %s (%s/step), converged=%v\n",
		*algo, st.Steps, st.Wall.Round(time.Millisecond),
		st.PerStep().Round(time.Microsecond), st.Converged)
	return nil
}

func runSeal(args []string) error {
	fs := flag.NewFlagSet("seal", flag.ExitOnError)
	ccfg := config.DefaultCommon()
	master := commonFlags(fs, &ccfg)
	if err := config.Parse(fs, args); err != nil {
		return err
	}
	if err := ccfg.Validate(); err != nil {
		return err
	}
	c, err := newClient(*master, ccfg.Cluster, ccfg.Trace)
	if err != nil {
		return err
	}
	defer c.Close()
	start := time.Now()
	if err := c.Seal(); err != nil {
		return err
	}
	fmt.Printf("sealed in %s\n", time.Since(start).Round(time.Millisecond))
	return nil
}

func runQuery(args []string) error {
	fs := flag.NewFlagSet("query", flag.ExitOnError)
	ccfg := config.DefaultCommon()
	master := commonFlags(fs, &ccfg)
	vertex := fs.Uint64("vertex", 0, "vertex to query")
	asFloat := fs.Bool("float", false, "interpret the result as float64 (pagerank)")
	if err := config.Parse(fs, args); err != nil {
		return err
	}
	if err := ccfg.Validate(); err != nil {
		return err
	}
	c, err := newClient(*master, ccfg.Cluster, ccfg.Trace)
	if err != nil {
		return err
	}
	defer c.Close()
	w, found, err := c.Query(graph.VertexID(*vertex))
	if err != nil {
		return err
	}
	if !found {
		fmt.Printf("vertex %d: not found\n", *vertex)
		return nil
	}
	if *asFloat {
		fmt.Printf("vertex %d: %g\n", *vertex, w.F64())
	} else {
		fmt.Printf("vertex %d: %d\n", *vertex, uint64(w))
	}
	return nil
}

// startMetrics boots the observability endpoint when addr is non-empty.
// All roles in this process share the returned registry.
func startMetrics(addr string) (*metrics.Registry, *metrics.Server, error) {
	if addr == "" {
		return nil, nil, nil
	}
	reg := metrics.NewRegistry()
	srv, err := metrics.ListenAndServe(addr, reg)
	if err != nil {
		return nil, nil, fmt.Errorf("metrics: %w", err)
	}
	fmt.Printf("elga metrics on http://%s/metrics (pprof at /debug/pprof)\n", srv.Addr())
	return reg, srv, nil
}

func waitForSignal() {
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, syscall.SIGINT, syscall.SIGTERM)
	<-ch
}

// Ensure algorithm names referenced in help stay registered.
var _ = algorithm.Names
