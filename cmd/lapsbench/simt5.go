package main

import (
	"fmt"
	stdrt "runtime"
	"syscall"
	"time"

	"laps/internal/exp"
	"laps/internal/npsim"
	"laps/internal/obs"
	"laps/internal/sim"
	"laps/internal/stats"
)

// simWindow is sim_t5's traffic window at scale 1: about 3 M packets
// through the calibrated 115 %-load Table VI scenario.
const simWindow = 600 * sim.Millisecond

// simOut is one simulation's outcome; everything but the wall-clock
// figures repeats exactly for a seed.
type simOut struct {
	m      npsim.Metrics
	counts simCounts
}

// simCounts are the exact statistics golden.json pins for the default
// seed and scale. The event counts need the recorder, so only a traced
// repetition has them.
type simCounts struct {
	Injected    uint64 `json:"injected"`
	Dropped     uint64 `json:"dropped"`
	Completed   uint64 `json:"completed"`
	OutOfOrder  uint64 `json:"out_of_order"`
	ColdCache   uint64 `json:"cold_cache"`
	Migrations  uint64 `json:"sim.migrations"`
	MapSplits   uint64 `json:"sim.map_splits"`
	CoreSteals  uint64 `json:"sim.core_steals"`
	AFCPromotes uint64 `json:"sim.afc_promotes"`
}

// timed is the part of the counts an untraced repetition also produces.
func (c simCounts) timed() simCounts {
	c.MapSplits, c.CoreSteals, c.AFCPromotes = 0, 0, 0
	return c
}

func simSetup(seed uint64, scale float64) *inputs {
	// The simulator builds its own stack inside exp.Traced; set-up is
	// the record generation the rungs replay (Table V's group G1, the
	// traces T5 runs on whatever the seed).
	return &inputs{
		seed:   seed,
		recs:   genCAIDA(1, roundBurst(int(caidaRecs*scale))),
		window: sim.Time(float64(simWindow) * scale),
	}
}

// simRep runs the scenario once.
func simRep(in *inputs, traced bool) (*repOut, error) {
	var rec *obs.Recorder
	if traced {
		rec = obs.NewRecorder(0)
	}
	opts := exp.Options{
		Duration: in.window, ModelSeconds: 60, Cores: 16, Workers: 1, Seed: in.seed,
	}
	var ms0, ms1 stdrt.MemStats
	stdrt.GC()
	stdrt.ReadMemStats(&ms0)
	cpu0 := cpuTime(syscall.RUSAGE_SELF)
	t0 := time.Now()
	tr, err := exp.Traced(opts, "T5", rec, 0)
	if err != nil {
		return nil, err
	}
	out := &repOut{wall: time.Since(t0), cpu: cpuTime(syscall.RUSAGE_SELF) - cpu0, events: rec}
	stdrt.ReadMemStats(&ms1)
	// Nothing of the simulation outlives exp.Traced, so there is no
	// retained heap to read: heap_mb here is what one run allocates.
	out.heapMB = float64(ms1.TotalAlloc-ms0.TotalAlloc) / (1 << 20)
	m := tr.Metrics
	out.simOut = &simOut{m: m, counts: simCounts{
		Injected: m.Injected, Dropped: m.Dropped, Completed: m.Completed,
		OutOfOrder: m.OutOfOrder, ColdCache: m.ColdCache, Migrations: m.Migrations,
		MapSplits:   rec.Count(obs.EvMapSplit),
		CoreSteals:  rec.Count(obs.EvCoreSteal),
		AFCPromotes: rec.Count(obs.EvAFCPromote),
	}}
	out.offered, out.retired = m.Injected, m.Injected
	if m.Injected != m.Enqueued+m.Dropped || m.Completed != m.Enqueued {
		out.violations = append(out.violations, fmt.Sprintf(
			"conservation: injected %d, enqueued %d, dropped %d, completed %d", m.Injected, m.Enqueued, m.Dropped, m.Completed))
		out.failed = 1
	}
	return out, nil
}

// simQuantile is the q-quantile in µs of the simulated arrival→departure
// latency over all services. The histogram is log2-bucketed; the value is
// interpolated inside the bucket by rank so it moves continuously.
func simQuantile(m *npsim.Metrics, q float64) float64 {
	var merged [64]stats.Bucket
	var total uint64
	for s := range m.Latency {
		for _, b := range m.Latency[s].Buckets() {
			i := 0
			for lo := b.Lo; lo > 1; lo >>= 1 {
				i++
			}
			merged[i].Lo, merged[i].Hi = b.Lo, b.Hi
			merged[i].Count += b.Count
			total += b.Count
		}
	}
	if total == 0 {
		return 0
	}
	rank := q * float64(total)
	var seen float64
	for _, b := range merged {
		if b.Count == 0 {
			continue
		}
		if c := float64(b.Count); seen+c >= rank {
			return (float64(b.Lo) + (rank-seen)/c*float64(b.Hi-b.Lo)) / 1e3
		}
		seen += float64(b.Count)
	}
	return float64(merged[len(merged)-1].Hi) / 1e3
}
