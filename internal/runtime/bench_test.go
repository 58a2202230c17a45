package runtime

import (
	"context"
	"fmt"
	"testing"

	"laps/internal/afd"
	"laps/internal/core"
	"laps/internal/crc"
	"laps/internal/packet"
	"laps/internal/trace"
)

// benchPackets pre-builds a packet stream so generation cost stays out
// of the measured loop.
func benchPackets(n int, services int, seed uint64) []*packet.Packet {
	srcs := make([]trace.Source, services)
	for s := range srcs {
		srcs[s] = trace.NewSynthetic(trace.SynthConfig{
			Name: "bench", Flows: 1000, Skew: 1.1, Seed: seed + uint64(s)*977,
		})
	}
	seqs := make(map[packet.FlowKey]uint64, 2048)
	out := make([]*packet.Packet, n)
	for i := range out {
		svc := packet.ServiceID(i % services)
		rec, _ := srcs[svc].Next()
		out[i] = &packet.Packet{
			ID: uint64(i + 1), Flow: rec.Flow, Service: svc, Size: rec.Size,
			FlowSeq: seqs[rec.Flow],
		}
		// Prime outside the timed loop: in production the generator is
		// the ingress hash point, so the engine under test sees packets
		// that already carry their hash.
		crc.Prime(out[i])
		seqs[rec.Flow]++
	}
	return out
}

// benchBurst is the vector length the dispatch benchmarks feed with.
// The UDP front door delivers one datagram (up to 255 records) per
// burst; 256 exercises the engine's full burstChunk grouping window on
// top of that, the shape runLive's crossbar produces when coalescing.
const benchBurst = 256

// runBench pushes b.N packets through a fresh o in benchBurst-size
// bursts — the production feed shape since the ingress path went
// datagram-as-burst — and reports pps.
func runBench(b *testing.B, o owner, cfg Config, services int) {
	pkts := benchPackets(b.N, services, 1)
	r, err := o.build(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	r.launch(context.Background())
	for i := 0; i < len(pkts); i += benchBurst {
		r.burst(pkts[i:min(i+benchBurst, len(pkts))])
	}
	res := r.stop()
	b.StopTimer()
	if res.Processed+res.Dropped != res.Dispatched {
		b.Fatalf("conservation violated: %+v", res)
	}
	b.ReportMetric(float64(res.Processed)/res.Elapsed.Seconds(), "pps")
	b.ReportMetric(float64(res.Dropped)/float64(res.Dispatched+1), "droprate")
}

// BenchmarkDispatchOverhead measures the pure scheduling + ring path:
// LAPS decision, fencing bookkeeping, batched SPSC handoff, no emulated
// work.
func BenchmarkDispatchOverhead(b *testing.B) {
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			services := 2
			if workers < 2 {
				services = 1
			}
			l := core.New(core.Config{
				TotalCores: workers, Services: services, AFD: afd.Config{Seed: 1},
			})
			runBench(b, owners[0], Config{
				Workers: workers, RingCap: 1024, Batch: 64,
				Sched: l, Policy: BlockWhenFull,
			}, services)
		})
	}
}

// BenchmarkThroughputSleep emulates latency-bound packet work (offload
// waits): throughput scales with worker count even when physical cores
// are scarce, because the waits overlap.
func BenchmarkThroughputSleep(b *testing.B) {
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			services := 2
			if workers < 2 {
				services = 1
			}
			l := core.New(core.Config{
				TotalCores: workers, Services: services, AFD: afd.Config{Seed: 1},
			})
			runBench(b, owners[0], Config{
				Workers: workers, RingCap: 256, Batch: 32,
				Sched: l, Policy: BlockWhenFull,
				Work: WorkSleep, WorkFactor: 4,
			}, services)
		})
	}
}

// BenchmarkShardedDispatch measures the lock-free snapshot-resolution
// path: CRC shard selection, atomic view load, Forward() against frozen
// map/migration tables, per-shard fencing — no emulated work. The
// dispatchers sweep is the headline multi-shard scaling experiment;
// on hosts with one physical CPU the shards time-share and the sweep is
// flat-to-negative (extra goroutine hops); docs/PERFORMANCE.md,
// "Retired hand-written records", has the single-CPU readings.
func BenchmarkShardedDispatch(b *testing.B) {
	for _, disp := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("dispatchers=%d", disp), func(b *testing.B) {
			l := core.New(core.Config{
				TotalCores: 4, Services: 2, AFD: afd.Config{Seed: 1},
			})
			runBench(b, owner{"sharded", disp}, Config{
				Workers: 4, RingCap: 1024, Batch: 64,
				Sched: l, Policy: BlockWhenFull,
			}, 2)
		})
	}
}

// BenchmarkShardedThroughputSleep sweeps dispatcher shards under
// latency-bound work: the workers' sleeps dominate, so this pins that
// sharding the ingress adds no throughput tax when the data plane is
// not the bottleneck.
func BenchmarkShardedThroughputSleep(b *testing.B) {
	for _, disp := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("dispatchers=%d", disp), func(b *testing.B) {
			l := core.New(core.Config{
				TotalCores: 4, Services: 2, AFD: afd.Config{Seed: 1},
			})
			runBench(b, owner{"sharded", disp}, Config{
				Workers: 4, RingCap: 256, Batch: 32,
				Sched: l, Policy: BlockWhenFull,
				Work: WorkSleep, WorkFactor: 4,
			}, 2)
		})
	}
}

// BenchmarkThroughputSpin emulates CPU-bound packet work; scaling here
// tracks physical cores (GOMAXPROCS), so on a one-core machine the
// sleep variant is the scaling witness and this one bounds the
// single-core ceiling.
func BenchmarkThroughputSpin(b *testing.B) {
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			services := 2
			if workers < 2 {
				services = 1
			}
			l := core.New(core.Config{
				TotalCores: workers, Services: services, AFD: afd.Config{Seed: 1},
			})
			runBench(b, owners[0], Config{
				Workers: workers, RingCap: 256, Batch: 32,
				Sched: l, Policy: BlockWhenFull,
				Work: WorkSpin, WorkFactor: 0.1,
			}, services)
		})
	}
}
