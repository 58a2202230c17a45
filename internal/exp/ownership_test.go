package exp

import (
	"reflect"
	"testing"

	"laps/internal/packet"
	"laps/internal/rob"
	"laps/internal/sched"
	"laps/internal/sim"
	"laps/internal/trace"
)

// TestRecyclingDoesNotChangeResults runs Table VI's T1..T8 under the
// shared-queue and per-core schedulers twice: recycling descriptors,
// and with poisoning free lists, which never reuse one — the run as it
// was before there was a free list — and panic on a descriptor returned
// twice. Every counter and histogram must be bit-identical.
func TestRecyclingDoesNotChangeResults(t *testing.T) {
	opts := tinyOpts()
	for _, sc := range Scenarios() {
		for _, kind := range []SchedKind{KindFCFS, KindAFS, KindLAPS} {
			recycled := runScenario(sc, kind, opts)
			restore := packet.PoisonFreeLists(true)
			fresh := runScenario(sc, kind, opts)
			restore()
			if recycled.Metrics.Completed == 0 {
				t.Fatalf("%s/%s: nothing completed", sc.Name, kind)
			}
			if !reflect.DeepEqual(recycled, fresh) {
				t.Errorf("%s/%s: recycling descriptors changed the result\nrecycled: %+v\nfresh:    %+v",
					sc.Name, kind, recycled.Metrics, fresh.Metrics)
			}
		}
	}
}

// TestReorderBufferOwnsDepartedPackets: a re-order buffer keeps packets
// after Push, so the system must not return a departed descriptor when
// an OnDepart consumer is installed — the buffer's sink does, at final
// egress. Under poisoning lists the sink must never be handed a
// returned descriptor; wiring the mistake in by hand shows the check
// has teeth.
func TestReorderBufferOwnsDepartedPackets(t *testing.T) {
	defer packet.PoisonFreeLists(true)()
	opts := tinyOpts()
	mk := func() trace.Source { return trace.CAIDALike(1) }
	run := func(leak bool) (poisoned, held uint64) {
		sys, gen := singleServiceSim(mk, &sched.AFS{}, opts, opts.Duration)
		buf := rob.New(sys.Engine(), rob.Config{Capacity: 4096, Timeout: 100 * sim.Microsecond},
			func(p *packet.Packet) {
				if packet.Poisoned(p) {
					poisoned++
					return
				}
				sys.Free.Put(p)
			})
		sys.OnDepart = buf.Push
		if leak {
			// What System.complete would do if it returned departed
			// descriptors regardless of OnDepart (the guard only keeps
			// the sink's own Put from making it a double return).
			sys.OnDepart = func(p *packet.Packet) {
				buf.Push(p)
				if !packet.Poisoned(p) {
					sys.Free.Put(p)
				}
			}
		}
		gen.Start()
		sys.Engine().Run()
		buf.Flush()
		return poisoned, buf.Stats().Held
	}
	poisoned, held := run(false)
	if held == 0 {
		t.Fatal("the buffer never held a packet; the run does not exercise retention")
	}
	if poisoned != 0 {
		t.Fatalf("re-order buffer released %d descriptors the system had already returned", poisoned)
	}
	if poisoned, _ := run(true); poisoned == 0 {
		t.Fatal("returning held descriptors at departure went unnoticed")
	}
}

// TestExtensionsUnderPoisonedLists drives the experiment code itself —
// including extRestoration's buffer and tracker hooks — with ownership
// checking on: a descriptor returned twice panics, and the tables must
// not change.
func TestExtensionsUnderPoisonedLists(t *testing.T) {
	opts := tinyOpts()
	want := []Table{extRestoration(opts), extAdaptive(opts), Timeline(opts)}
	defer packet.PoisonFreeLists(true)()
	got := []Table{extRestoration(opts), extAdaptive(opts), Timeline(opts)}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("tables differ with poisoned free lists:\n%v\nwant\n%v", got, want)
	}
}
