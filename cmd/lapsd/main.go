// Command lapsd runs the live LAPS engine as a long-running daemon fed
// by the UDP front door: datagrams in the LAPS wire format (see
// docs/INGRESS.md) arrive on -listen, are decoded into pooled packets
// and dispatched across the worker goroutines by the configured
// scheduler. SIGINT/SIGTERM shut it down cleanly — kernel-buffered
// datagrams are drained (bounded by -drain-grace), the rings empty, and
// a parsable summary is printed.
//
// Usage:
//
//	lapsd -listen 127.0.0.1:4040                 # run until signalled
//	lapsd -listen :4040 -http 127.0.0.1:9090     # + Prometheus /metrics, /healthz
//	lapsd -listen :0 -duration 10s -workers 8    # bounded benchmark run
//
// Drive it with lapsgen, which assigns per-flow sequence numbers so the
// summary's ooo/loss counters measure end-to-end delivery.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"laps"
	"laps/internal/version"
)

var (
	listen     = flag.String("listen", "127.0.0.1:4040", "UDP address to receive LAPS wire-format datagrams on (:0 picks a free port)")
	httpAddr   = flag.String("http", "", "serve admin endpoints (/metrics, /healthz, /debug/pprof) on this address (:0 picks a free port)")
	workers    = flag.Int("workers", 4, "worker goroutines; the wire can carry any service, so at least the 4 service classes are needed")
	disp       = flag.Int("dispatchers", 0, "ingress dispatcher shards (0 = classic single dispatcher)")
	ringCap    = flag.Int("ring", 0, "per-worker SPSC ring capacity (0 = default 256)")
	batch      = flag.Int("batch", 0, "dispatch/consume batch size (0 = default 32)")
	sockets    = flag.Int("sockets", 1, "SO_REUSEPORT sockets (and reader goroutines) on -listen; >1 needs Linux, elsewhere falls back to one socket")
	rxBatch    = flag.Int("rx-batch", 0, "datagrams per receive batch — the recvmmsg vector length on Linux (0 = default 32)")
	rxAdapt    = flag.Bool("rx-adapt", true, "adapt the receive-vector length to the observed batch fill (Linux recvmmsg path)")
	rxMax      = flag.Int("rx-max", 0, "adaptive receive-vector ceiling (0 = default 256)")
	rcvbuf     = flag.Int("rcvbuf", 4<<20, "socket receive buffer request in bytes (kernel clamps to net.core.rmem_max; 0 leaves the default)")
	drop       = flag.Bool("drop", false, "drop packets when a worker ring is full instead of applying backpressure")
	duration   = flag.Duration("duration", 0, "wall-clock run length (0 = run until SIGINT/SIGTERM)")
	drainGrace = flag.Duration("drain-grace", 500*time.Millisecond, "shutdown ceiling for draining kernel-buffered datagrams")
	detect     = flag.Duration("detect", 0, "health-monitor detection window for stalled workers (0 disables)")
	sched      = flag.String("scheduler", "laps", "scheduler: laps, afs, hash-only or oracle")
	flowBudget = flag.Int("flow-budget", 0, "bound exact per-flow state to this many flows; past it the stack degrades per -memory (0 = unbounded)")
	memoryMode = flag.String("memory", "auto", "flow-state regime past -flow-budget: auto (exact until the budget, then bounded), exact (a hard cap) or sketch (bounded from the start; the name predates the sampled reorder witness); see docs/SCALE.md")
	showVer    = flag.Bool("version", false, "print version and exit")
)

func main() {
	flag.Parse()
	if *showVer {
		fmt.Println(version.String("lapsd"))
		return
	}
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "lapsd:", err)
		os.Exit(1)
	}
}

func run() error {
	if *sockets < 1 {
		return fmt.Errorf("-sockets must be >= 1 (got %d)", *sockets)
	}
	// Bind the ingress group and the admin socket up front so their real
	// addresses (":0" picks a port) are printed before traffic is
	// expected, not after the run. ListenUDP sets SO_REUSEPORT on every
	// socket when more than one is asked for — a plain pre-bound conn
	// could not be joined later.
	conns, reuse, err := laps.ListenUDP(*listen, *sockets)
	if err != nil {
		return err
	}
	closeConns := func() {
		for _, c := range conns {
			c.Close()
		}
	}
	if *sockets > 1 && !reuse {
		fmt.Printf("lapsd: SO_REUSEPORT unavailable on this platform; falling back to 1 socket\n")
	}
	fmt.Printf("lapsd: listening on udp %s (sockets=%d workers=%d scheduler=%s dispatchers=%d)\n",
		conns[0].LocalAddr(), len(conns), *workers, *sched, *disp)

	mem, err := laps.ParseMemoryClass(*memoryMode)
	if err != nil {
		closeConns()
		return err
	}
	cfg := laps.RunConfig{
		StackConfig: laps.StackConfig{
			Scheduler:  laps.SchedulerKind(*sched),
			Duration:   laps.Time(duration.Nanoseconds()),
			FlowBudget: *flowBudget,
			Memory:     mem,
		},
		Workers:      *workers,
		Dispatchers:  *disp,
		RingCap:      *ringCap,
		Batch:        *batch,
		Block:        !*drop,
		Recycle:      true,
		DetectWindow: *detect,
		Ingress: &laps.IngressConfig{
			Conns:         conns,
			Batch:         *rxBatch,
			AdaptiveBatch: *rxAdapt,
			MaxBatch:      *rxMax,
			ReadBuffer:    *rcvbuf,
			DrainGrace:    *drainGrace,
		},
	}
	if *httpAddr != "" {
		ln, err := net.Listen("tcp", *httpAddr)
		if err != nil {
			closeConns()
			return err
		}
		cfg.HTTPListener = ln
		fmt.Printf("lapsd: admin endpoints on http://%s/ (metrics, healthz, debug/pprof)\n", ln.Addr())
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	cfg.Context = ctx

	res, err := laps.Run(cfg)
	if err != nil {
		return err
	}

	for _, line := range summary(res, mem, *flowBudget) {
		fmt.Println(line)
	}
	return nil
}

// summary renders lapsd's end-of-run report: one line per subsystem,
// key=value so scripts can assert on loss and ordering without scraping
// /metrics. mem and budget echo -memory and -flow-budget.
func summary(res *laps.RunResult, mem laps.MemoryClass, budget int) []string {
	in, l := res.Ingress, res.Live
	lines := []string{fmt.Sprintf("lapsd: ingress datagrams=%d packets=%d malformed=%d sockets=%d rcvbuf=%d vector=%d grows=%d shrinks=%d",
		in.Datagrams, in.Packets, in.Malformed,
		len(res.IngressSockets), in.RcvBuf, in.VectorLen, in.BatchGrows, in.BatchShrinks)}
	if len(res.IngressSockets) > 1 {
		for i, s := range res.IngressSockets {
			lines = append(lines, fmt.Sprintf("lapsd: socket %d datagrams=%d packets=%d vector=%d",
				i, s.Datagrams, s.Packets, s.VectorLen))
		}
	}
	lines = append(lines, fmt.Sprintf("lapsd: engine processed=%d dropped=%d ooo=%d migrations=%d fenced=%d wall=%v throughput=%.0f pps",
		l.Processed, l.Dropped, l.OutOfOrder, l.Migrations, l.Fenced,
		l.Elapsed.Round(time.Millisecond), float64(l.Processed)/l.Elapsed.Seconds()))
	if budget > 0 || mem == laps.MemorySketch {
		lines = append(lines, fmt.Sprintf("lapsd: memory class=%s budget=%d budget-hits=%d estimated-ooo=%d witness_level=%d",
			mem, budget, l.FlowBudgetHits, l.EstimatedOOO, l.WitnessLevel))
	}
	for _, w := range l.Workers {
		status := ""
		if w.Dead {
			status = " [dead]"
		}
		lines = append(lines, fmt.Sprintf("lapsd: worker %d processed=%d dropped=%d batches=%d%s",
			w.ID, w.Processed, w.Dropped, w.Batches, status))
	}
	if s := res.LapsStats; s != nil {
		lines = append(lines, fmt.Sprintf("lapsd: laps migrations=%d core-requests=%d grants=%d surplus-marks=%d",
			s.Migrations, s.CoreRequests, s.CoreGrants, s.SurplusMarks))
	}
	return lines
}
