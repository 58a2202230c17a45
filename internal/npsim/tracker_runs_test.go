package npsim

import (
	"testing"

	"laps/internal/crc"
	"laps/internal/packet"
	"laps/internal/sim"
)

// trackerCounters is every count a tracker exposes.
type trackerCounters struct {
	ooo, estimated, scaled, evicted, budgetHits uint64
	flows, level                                int
}

func countersOf(r *ReorderTracker) trackerCounters {
	return trackerCounters{r.OutOfOrder(), r.EstimatedOOO(), r.ScaledOOO(), r.Evicted(),
		r.BudgetHits(), r.Flows(), r.Level()}
}

// FuzzTrackerRuns pins RecordRun to RecordAt: the same departures, fed
// once per packet and once per run (as worker.consume feeds them: batch
// by batch, each batch in RecordRun calls until it is used up), must
// give the same verdict and extents for every packet and the same
// counters — on the exact, the capped (MemoryExact with a budget) and
// the MemoryAuto tracker, which switches to the witness mid-stream.
//
// ops is read two bytes per departure. The first picks the flow (high
// bit set: the previous packet's flow again, so runs form) and whether
// the batch ends after it (bit 6); the second moves the flow's sequence
// number by -3..+4 — reorders, duplicates and gaps.
func FuzzTrackerRuns(f *testing.F) {
	f.Add(uint8(0), uint16(0), true, []byte{1, 1, 0x81, 1, 0x81, 1, 2, 1, 0x82, 0, 0x82, 7, 0x42, 1, 1, 0, 0x81, 2})
	f.Add(uint8(1), uint16(3), false, []byte{1, 1, 2, 1, 3, 1, 4, 1, 5, 1, 0x85, 1, 1, 1, 0x81, 1, 0x81, 0})
	f.Add(uint8(2), uint16(4), true, []byte{1, 1, 0x81, 1, 2, 1, 3, 1, 4, 1, 5, 1, 0x85, 1, 0x85, 1, 6, 1, 0x86, 0, 0x86, 5})
	f.Fuzz(func(t *testing.T, mode uint8, budget uint16, stamped bool, ops []byte) {
		var cfg TrackerConfig
		switch mode % 3 {
		case 1:
			cfg = TrackerConfig{Memory: MemoryExact, FlowBudget: int(budget)%64 + 1}
		case 2:
			cfg = TrackerConfig{Memory: MemoryAuto, FlowBudget: int(budget)%128 + 1}
		}
		each, runs := NewTracker(cfg), NewTracker(cfg)
		seqs := map[packet.FlowKey]uint64{}
		var fl packet.FlowKey
		var batch []*packet.Packet
		for i := 0; i+1 < len(ops); i += 2 {
			if ops[i]&0x80 == 0 || i == 0 {
				fl = flowN(uint32(ops[i] & 0x3f))
			}
			seq := max(0, int64(seqs[fl])+int64(ops[i+1]%8)-3)
			seqs[fl] = uint64(seq)
			batch = append(batch, &packet.Packet{Flow: fl, FlowSeq: uint64(seq), Departed: sim.Time(i + 1)})
			if ops[i]&0x40 == 0 && i+3 < len(ops) {
				continue
			}
			for k := 0; k < len(batch); {
				m, late, lagPkts, lagTime := runs.RecordRun(batch[k:], stamped)
				if m < 1 || k+m > len(batch) {
					t.Fatalf("departure %d: RecordRun recorded %d of %d", i/2, m, len(batch)-k)
				}
				for q, p := range batch[k : k+m] {
					var now sim.Time
					if stamped {
						now = p.Departed
					}
					wl, wp, wt := each.RecordAt(p, now)
					gl, gp, gt := false, uint64(0), sim.Time(0)
					if q == m-1 {
						gl, gp, gt = late, lagPkts, lagTime
					}
					if gl != wl || gp != wp || gt != wt {
						t.Fatalf("departure %d, packet %d of the run: run path says (%v,%d,%d), per packet (%v,%d,%d)",
							i/2, q, gl, gp, gt, wl, wp, wt)
					}
				}
				if cfg == (TrackerConfig{}) && !late {
					// The exact tracker takes a whole flow run per call.
					n := 1
					for n < len(batch)-k && batch[k+n].Flow == batch[k].Flow {
						n++
					}
					if m != n {
						t.Fatalf("departure %d: in-order run of %d recorded in a call of %d", i/2, n, m)
					}
				}
				k += m
				if got, want := countersOf(runs), countersOf(each); got != want {
					t.Fatalf("departure %d: run path counters %+v, per packet %+v", i/2, got, want)
				}
			}
			batch = batch[:0]
		}
	})
}

// TestTrackerTableSpreadsAShardsFlows pins the exact table's hash: a
// live tracker shard holds only flows whose CRC16s share a residue mod
// 32 (the runtime's shard function), and homed on the CRC16 they would
// reach 64 of a 2048-slot table's home slots. Keyed on the witness
// hash, they spread over the whole table.
func TestTrackerTableSpreadsAShardsFlows(t *testing.T) {
	const slots, shards = 2048, 32
	r := NewTracker(TrackerConfig{})
	crcHomes := map[uint16]bool{}
	for i := uint32(0); r.Flows() < slots; i++ {
		fl := flowN(i)
		h := crc.FlowHash(fl)
		if h%shards != 0 {
			continue
		}
		crcHomes[h&(slots-1)] = true
		r.Record(&packet.Packet{Flow: fl})
	}
	homes := map[uint16]bool{}
	r.next.Range(func(_ packet.FlowKey, h uint16, _ watermark) bool {
		homes[h&(slots-1)] = true
		return true
	})
	t.Logf("%d keys of one shard: %d distinct home slots of %d, %d on the CRC16", slots, len(homes), slots, len(crcHomes))
	if len(homes) < 1000 {
		t.Fatalf("%d keys sharing a CRC16 residue mod %d reach %d of %d home slots, want >= 1000",
			slots, shards, len(homes), slots)
	}
}
