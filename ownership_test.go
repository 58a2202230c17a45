package laps_test

import (
	"reflect"
	"testing"

	"laps"
	"laps/internal/exp"
	"laps/internal/packet"
)

// TestSimulateRecyclingDoesNotChangeResults runs Table VI's T1..T8
// through Simulate, with and without the egress re-order buffer, twice:
// recycling descriptors, and with poisoning free lists that never reuse
// one and panic on a descriptor returned twice — which is what happens
// if the system returns a packet the re-order buffer still holds, since
// the buffer's sink returns it again at final egress. The whole
// SimResult must be bit-identical.
func TestSimulateRecyclingDoesNotChangeResults(t *testing.T) {
	for _, sc := range exp.Scenarios() {
		for _, kind := range []laps.SchedulerKind{laps.LAPS, laps.FCFS, laps.AFS} {
			for _, restore := range []bool{false, true} {
				run := func() *laps.SimResult {
					var tr []laps.ServiceTraffic
					for svc, mk := range sc.Group.Sources {
						tr = append(tr, laps.ServiceTraffic{
							Service: laps.ServiceID(svc), Params: sc.Params[svc], Trace: mk(),
						})
					}
					res, err := laps.Simulate(laps.SimConfig{
						StackConfig: laps.StackConfig{
							Scheduler: kind, Duration: 2 * laps.Millisecond, TimeCompression: 30000, Traffic: tr,
						},
						RestoreOrder: restore,
					})
					if err != nil {
						t.Fatal(err)
					}
					return res
				}
				recycled := run()
				unpoison := packet.PoisonFreeLists(true)
				fresh := run()
				unpoison()
				if recycled.Metrics.Completed == 0 {
					t.Fatalf("%s/%s: nothing completed", sc.Name, kind)
				}
				if restore && kind == laps.AFS && recycled.Restored.Buffer.Held == 0 {
					t.Fatalf("%s/%s: the re-order buffer never held a packet", sc.Name, kind)
				}
				if !reflect.DeepEqual(recycled, fresh) {
					t.Errorf("%s/%s restore=%v: recycling descriptors changed the result\nrecycled: %+v\nfresh:    %+v",
						sc.Name, kind, restore, recycled.Metrics, fresh.Metrics)
				}
			}
		}
	}
}
