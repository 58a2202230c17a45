package main

// workload is one named set of inputs. The whys are repeated in
// BENCHMARK.json and argued at length in README.md.
type workload struct {
	name string
	live *liveSpec // nil for sim_t5
	// next draws one record from the workload's trace source, for
	// trace.next_ns_per_pkt.
	next func(seed uint64) func()
	// ladder names the rungs one packet climbs on this workload and how
	// many times; afd's rungs sit inside core.target and are not
	// counted twice. Their sum is set against cpu_ns_per_pkt.
	ladder []ladderStep
}

type ladderStep struct {
	metric string
	times  float64
}

var engineLadder = []ladderStep{
	{"feeder.ns_per_pkt", 1}, {"flowtab.ref_hit_ns_per_op", 1}, {"core.target_ns_per_pkt", 1},
	{"runtime.ring_ns_per_pkt", 1}, {"npsim.record_ns_per_pkt", 1},
}

var workloads = []*workload{
	{
		name: "engine_elephants",
		live: &liveSpec{records: genCAIDA, recCap: caidaRecs, pkts: 2 << 20, engine: engLAPS, feed: feedClosed},
		next: caidaNext, ladder: engineLadder,
	},
	{
		name: "engine_storm",
		live: &liveSpec{records: genCAIDA, recCap: caidaRecs, pkts: 5 << 19, engine: engFlap, feed: feedClosed},
		next: caidaNext,
		ladder: []ladderStep{
			{"feeder.ns_per_pkt", 1}, {"flowtab.ref_hit_ns_per_op", 1},
			{"runtime.ring_ns_per_pkt", 1}, {"npsim.record_ns_per_pkt", 1},
		},
	},
	{
		name: "engine_paced",
		live: &liveSpec{records: genCAIDA, recCap: caidaRecs, pkts: 1 << 19, engine: engLAPS, feed: feedPaced},
		next: caidaNext, ladder: engineLadder,
	},
	{
		name: "sharded_churn",
		live: &liveSpec{records: genChurn, pkts: 3 << 19, engine: engSharded, feed: feedClosed, budget: churnCap},
		next: churnNext,
		// Two rings: the shard's ingress ring, then the worker's.
		ladder: []ladderStep{
			{"feeder.ns_per_pkt", 1}, {"flowtab.ref_insert_ns_per_op", 1}, {"core.forward_ns_per_pkt", 1},
			{"runtime.ring_ns_per_pkt", 2}, {"sketch.record_ns_per_pkt", 1},
		},
	},
	{
		name: "udp_loopback",
		live: &liveSpec{records: genCAIDA, recCap: caidaRecs, pkts: 3 << 19, engine: engSharded, feed: feedUDP},
		next: caidaNext,
		// recv already contains decode and prime; send contains encode.
		ladder: []ladderStep{
			{"ingress.sender_cpu_ns_per_pkt", 1}, {"ingress.recv_ns_per_pkt", 1},
			{"flowtab.ref_hit_ns_per_op", 1}, {"core.forward_ns_per_pkt", 1},
			{"runtime.ring_ns_per_pkt", 2}, {"npsim.record_ns_per_pkt", 1},
		},
	},
	{
		name: "sim_t5",
		next: func(uint64) func() { return caidaNext(1) },
		ladder: []ladderStep{
			{"trace.next_ns_per_pkt", 1}, {"core.target_ns_per_pkt", 1}, {"npsim.record_ns_per_pkt", 1},
		},
	},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

func (w *workload) setup(seed uint64, scale float64) (*inputs, error) {
	if w.live == nil {
		return simSetup(seed, scale), nil
	}
	return w.live.setup(seed, scale)
}

func (w *workload) rep(in *inputs, traced bool) (*repOut, error) {
	if w.live == nil {
		return simRep(in, traced)
	}
	return w.live.rep(in, traced)
}

func (w *workload) paced() bool { return w.live != nil && w.live.feed == feedPaced }
