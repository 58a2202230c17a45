// Command lapsgen generates LAPS wire-format UDP load for lapsd (or any
// laps.Run with Ingress set). It assigns each flow its per-flow sequence
// numbers, so the receiver's reorder tracker and drop counters measure
// loss and out-of-order delivery end to end — lapsgen says how many
// packets were sent, lapsd's summary says how many arrived and whether
// any flow was reordered.
//
// Three header sources, most specific wins:
//
//	lapsgen -target 127.0.0.1:4040                      # synthetic: -flows round-robin
//	lapsgen -target :4040 -scenario T5 -count 200000    # Table VI trace mixture
//	lapsgen -target :4040 -pcap capture.pcap            # replay a capture (looped)
//
// -pps paces the stream; leave it 0 only when the receiver applies
// backpressure or the kernel socket buffers out-run the burst.
package main

import (
	"flag"
	"fmt"
	"math/rand/v2"
	"os"
	"time"

	"laps"
	"laps/internal/exp"
	"laps/internal/ingress"
	"laps/internal/packet"
	"laps/internal/trace"
	"laps/internal/version"
)

var (
	target     = flag.String("target", "", "UDP address to send to (required)")
	count      = flag.Int("count", 100000, "packets to send")
	nFlows     = flag.Int("flows", 1024, "synthetic mode: distinct flows, round-robin interleaved")
	scenario   = flag.String("scenario", "", "send a Table VI scenario's trace mixture (T1..T8) instead of synthetic flows")
	pcapPath   = flag.String("pcap", "", "replay this pcap capture (looped) instead of synthetic flows")
	pps        = flag.Float64("pps", 0, "pace the stream to this many packets per second (0 = flat out)")
	conns      = flag.Int("conns", 1, "source sockets; flows pin to a socket by the dispatcher's CRC16 hash, so a REUSEPORT receiver sees that many 4-tuples")
	dgramBatch = flag.Int("dgram-batch", 32, "records per datagram (1..255; 32 ≈ 644-byte datagrams)")
	seed       = flag.Uint64("seed", 1, "synthetic flow-population seed")
	showVer    = flag.Bool("version", false, "print version and exit")
)

func main() {
	flag.Parse()
	if *showVer {
		fmt.Println(version.String("lapsgen"))
		return
	}
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "lapsgen:", err)
		os.Exit(1)
	}
}

// next yields the flow header and service of one packet to send.
type next func(i int) (packet.FlowKey, packet.ServiceID, int)

func run() error {
	if err := checkFlags(*target, *scenario, *pcapPath, *count, *nFlows, *conns, *dgramBatch); err != nil {
		return err
	}
	src, err := headerSource()
	if err != nil {
		return err
	}
	s, err := dialFanout(*target, *conns, *dgramBatch)
	if err != nil {
		return err
	}
	defer s.Close()
	start := time.Now()
	for i := 0; i < *count; i++ {
		flow, svc, size := src(i)
		if err := s.Send(flow, svc, size); err != nil {
			return err
		}
		// Pace at datagram granularity: hold the stream back whenever it
		// runs ahead of the requested rate.
		if *pps > 0 && (i+1)%*dgramBatch == 0 {
			if err := s.Flush(); err != nil {
				return err
			}
			ahead := time.Duration(float64(i+1) / *pps * float64(time.Second))
			if d := ahead - time.Since(start); d > 0 {
				time.Sleep(d)
			}
		}
	}
	if err := s.Flush(); err != nil {
		return err
	}
	elapsed := time.Since(start)
	fmt.Printf("lapsgen: sent=%d flows=%d datagrams=%d conns=%d elapsed=%v pps=%.0f\n",
		s.Sent(), s.Flows(), s.Datagrams(), s.Conns(), elapsed.Round(time.Millisecond),
		float64(s.Sent())/elapsed.Seconds())
	return nil
}

// checkFlags rejects flag values lapsgen cannot run with, before any
// socket is dialled. -dgram-batch must fit the wire format's one-byte
// record count, and it is also the pacing loop's divisor.
func checkFlags(target, scenario, pcap string, count, flows, conns, dgramBatch int) error {
	switch {
	case target == "":
		return fmt.Errorf("-target is required (e.g. -target 127.0.0.1:4040)")
	case scenario != "" && pcap != "":
		return fmt.Errorf("-scenario and -pcap are mutually exclusive header sources")
	case count <= 0:
		return fmt.Errorf("-count must be positive, got %d", count)
	case scenario == "" && pcap == "" && flows <= 0:
		return fmt.Errorf("-flows must be positive, got %d", flows)
	case conns < 1:
		return fmt.Errorf("-conns must be >= 1, got %d", conns)
	case dgramBatch < 1 || dgramBatch > ingress.MaxRecords:
		return fmt.Errorf("-dgram-batch must be in 1..%d, got %d", ingress.MaxRecords, dgramBatch)
	}
	return nil
}

// headerSource builds the per-packet header stream for the chosen mode.
func headerSource() (next, error) {
	switch {
	case *pcapPath != "":
		f, err := os.Open(*pcapPath)
		if err != nil {
			return nil, err
		}
		recs, err := laps.ReadPcap(f)
		f.Close()
		if err != nil {
			return nil, err
		}
		if len(recs) == 0 {
			return nil, fmt.Errorf("%s: empty capture", *pcapPath)
		}
		return func(i int) (packet.FlowKey, packet.ServiceID, int) {
			r := recs[i%len(recs)]
			return r.Flow, packet.SvcIPForward, r.Size
		}, nil

	case *scenario != "":
		var sc *exp.Scenario
		for _, c := range exp.Scenarios() {
			if c.Name == *scenario {
				sc = &c
				break
			}
		}
		if sc == nil {
			return nil, fmt.Errorf("unknown scenario %q (want T1..T8)", *scenario)
		}
		var srcs [packet.NumServices]trace.Source
		for svc := range srcs {
			srcs[svc] = sc.Group.Sources[svc]()
		}
		return func(i int) (packet.FlowKey, packet.ServiceID, int) {
			svc := i % packet.NumServices
			rec, ok := srcs[svc].Next()
			if !ok { // synthetic sources never exhaust, but stay total
				rec = trace.Record{Flow: packet.FlowKey{Proto: packet.ProtoUDP}, Size: 64}
			}
			return rec.Flow, packet.ServiceID(svc), rec.Size
		}, nil

	default:
		// A fixed population of seeded flows, services striped across it,
		// packets round-robin interleaved — the worst case for any ingress
		// path that could reorder by batching per flow.
		rng := rand.New(rand.NewPCG(*seed, 0x6c61707367656e)) // "lapsgen"
		flows := make([]packet.FlowKey, *nFlows)
		for i := range flows {
			flows[i] = packet.FlowKey{
				SrcIP:   rng.Uint32(),
				DstIP:   rng.Uint32(),
				SrcPort: uint16(rng.Uint32()),
				DstPort: uint16(rng.Uint32()),
				Proto:   packet.ProtoUDP,
			}
		}
		return func(i int) (packet.FlowKey, packet.ServiceID, int) {
			f := i % len(flows)
			return flows[f], packet.ServiceID(f % packet.NumServices), 64
		}, nil
	}
}
