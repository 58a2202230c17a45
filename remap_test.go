package laps

import (
	"context"
	"testing"

	"laps/internal/afd"
	"laps/internal/core"
	"laps/internal/npsim"
	"laps/internal/obs"
	"laps/internal/packet"
	rt "laps/internal/runtime"
	"laps/internal/sim"
)

// fakeSched records what the remap wrapper hands it.
type fakeSched struct {
	rec  *obs.Recorder
	last packet.Packet
	n    int
}

func (f *fakeSched) Name() string                { return "fake" }
func (f *fakeSched) SetRecorder(r *obs.Recorder) { f.rec = r }
func (f *fakeSched) Target(p *packet.Packet, _ npsim.View) int {
	f.last = *p
	f.n++
	return int(p.Service)
}
func (f *fakeSched) TargetN(p *packet.Packet, _ int, v npsim.View) int { return f.Target(p, v) }
func (f *fakeSched) Generation() uint64                                { return 0 }
func (f *fakeSched) Snapshot(sim.Time) npsim.Forwarder                 { return svcFwd{} }

// svcFwd forwards every packet to the core numbered by its service.
type svcFwd struct{}

func (svcFwd) Forward(p *packet.Packet) int { return int(p.Service) }

func TestRemapSchedulerPassthrough(t *testing.T) {
	inner := &fakeSched{}
	rm := &remapScheduler{inner: inner}
	if rm.Name() != "fake" {
		t.Fatalf("Name() = %q, want the wrapped scheduler's name", rm.Name())
	}
	rec := obs.NewRecorder(16)
	rm.SetRecorder(rec)
	if inner.rec != rec {
		t.Fatal("SetRecorder did not reach the wrapped scheduler")
	}
}

func TestRemapSchedulerRemapsServiceOnACopy(t *testing.T) {
	inner := &fakeSched{}
	// Services 2 and 3 are active; they compact onto 0 and 1.
	var remap [packet.NumServices]ServiceID
	remap[2], remap[3] = 0, 1
	rm := &remapScheduler{inner: inner, remap: remap}

	p := &packet.Packet{ID: 7, Service: 3, Size: 1200}
	if got := rm.Target(p, nil); got != 1 {
		t.Fatalf("Target = %d, want remapped service 1", got)
	}
	if inner.last.Service != 1 {
		t.Fatalf("wrapped scheduler saw service %d, want 1", inner.last.Service)
	}
	if inner.last.ID != 7 || inner.last.Size != 1200 {
		t.Fatalf("wrapped scheduler saw a mangled packet: %+v", inner.last)
	}
	if p.Service != 3 {
		t.Fatalf("original packet mutated: service became %d", p.Service)
	}
	if inner.n != 1 {
		t.Fatalf("wrapped scheduler called %d times, want 1", inner.n)
	}
	if got := rm.TargetN(p, 8, nil); got != 1 || inner.last.Service != 1 || p.Service != 3 {
		t.Fatalf("TargetN = %d with service %d seen, packet's now %d: want 1, 1, 3", got, inner.last.Service, p.Service)
	}
	if got := rm.Snapshot(0).Forward(p); got != 1 || p.Service != 3 {
		t.Fatalf("view forwarded to %d, packet's service now %d: want 1 and 3", got, p.Service)
	}
}

func TestRemapSchedulerIgnoresNonSetterInner(t *testing.T) {
	// An inner scheduler without SetRecorder must not panic the wrapper.
	rm := &remapScheduler{inner: &recSched{}}
	rm.SetRecorder(obs.NewRecorder(1)) // no-op, but must be safe
}

type bareSched struct{}

func (bareSched) Name() string                          { return "bare" }
func (bareSched) Target(*packet.Packet, npsim.View) int { return 0 }

func TestLapsOfUnwrapsAllWrappers(t *testing.T) {
	l := core.New(core.Config{TotalCores: 4, Services: 1, AFD: afd.Config{Seed: 1}})
	if lapsOf(l) != l {
		t.Fatal("lapsOf(LAPS) != LAPS")
	}
	if got := lapsOf(&remapScheduler{inner: l}); got != l {
		t.Fatal("lapsOf did not unwrap remapScheduler")
	}
	if got := lapsOf(&mirrorScheduler{inner: &remapScheduler{inner: l}}); got != l {
		t.Fatal("lapsOf did not unwrap mirror-over-remap")
	}
	if lapsOf(bareSched{}) != nil {
		t.Fatal("lapsOf invented a LAPS from a non-LAPS scheduler")
	}
	if lapsOf(nil) != nil {
		t.Fatal("lapsOf(nil) != nil")
	}
}

// recSched is a burst-capable SnapshotProvider that records how an
// owner trains it: every TargetN weight and service, and every call on
// the one-packet path. Called from the owner's scheduling goroutine
// only; read after Stop.
type recSched struct {
	ns      []int
	svcs    []packet.ServiceID
	targets int // Target calls: the unsampled weight-1 path
}

func (r *recSched) Name() string { return "rec" }
func (r *recSched) Target(*packet.Packet, npsim.View) int {
	r.targets++
	return 0
}
func (r *recSched) TargetN(p *packet.Packet, n int, _ npsim.View) int {
	r.ns = append(r.ns, n)
	r.svcs = append(r.svcs, p.Service)
	return 0
}
func (r *recSched) Generation() uint64                { return 0 }
func (r *recSched) Snapshot(sim.Time) npsim.Forwarder { return zeroFwd{} }

type zeroFwd struct{}

func (zeroFwd) Forward(*packet.Packet) int { return 0 }

// TestRemapSchedulerTrainsOnTheLaneSample: a LAPS built over fewer
// services than the traffic names is remap-wrapped, and the wrapper must
// pass the lane's sample through on both owners — one TargetN per
// sampled run at the lane's weight, with the compact service ID, and
// never the weight-1 path. Both owners resolve every other run against
// the wrapper's view and show the scheduler nothing of it: Engine
// inline, Sharded in each shard's training passes. The stream
// is single-packet runs, so every sampled weight is the sampler's
// stride.
func TestRemapSchedulerTrainsOnTheLaneSample(t *testing.T) {
	const (
		packets = 4000
		stride  = 8 // the lane sampler's 1-in-8 stride
	)
	var remap [packet.NumServices]ServiceID
	remap[3] = 0 // only service 3 carries traffic
	for _, owner := range []struct {
		name   string
		shards int
	}{{"Engine", 0}, {"Sharded", 2}} {
		t.Run(owner.name, func(t *testing.T) {
			inner := &recSched{}
			cfg := rt.Config{Workers: 2, Sched: newRemapScheduler(inner, remap),
				Policy: rt.BlockWhenFull, Dispatchers: owner.shards}
			var (
				offer func(*packet.Packet) bool
				stop  func() *rt.Result
			)
			if owner.shards == 0 {
				e, err := rt.New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				e.Start(context.Background())
				offer, stop = e.Dispatch, e.Stop
			} else {
				e, err := rt.NewSharded(cfg)
				if err != nil {
					t.Fatal(err)
				}
				e.Start(context.Background())
				offer, stop = e.Ingest, e.Stop
			}
			for i := 0; i < packets; i++ {
				f := packet.FlowKey{SrcIP: uint32(i), DstIP: 1, SrcPort: uint16(i), DstPort: 80, Proto: packet.ProtoTCP}
				offer(&packet.Packet{ID: uint64(i + 1), Flow: f, Service: 3, Size: 64})
			}
			res := stop()
			if res.Processed != packets || res.OutOfOrder != 0 {
				t.Fatalf("processed %d of %d, out of order %d", res.Processed, packets, res.OutOfOrder)
			}
			if inner.targets != 0 {
				t.Fatalf("wrapped scheduler trained %d times on the weight-1 path, want 0", inner.targets)
			}
			weight := 0
			for k, n := range inner.ns {
				if inner.svcs[k] != 0 {
					t.Fatalf("call %d saw service %d, want the compact 0", k, inner.svcs[k])
				}
				if n != stride {
					t.Fatalf("call %d showed a one-packet run at weight %d, want the sampler's %d: only sampled runs reach TargetN", k, n, stride)
				}
				weight += n
			}
			if calls := len(inner.ns); calls == 0 || calls > packets/stride+stride {
				t.Fatalf("%d runs sampled of %d, want about one in %d", calls, packets, stride)
			}
			lanes := max(owner.shards, 1)
			if d := weight - packets; d <= -stride*lanes || d >= stride*lanes {
				t.Fatalf("sampled weight %d, want within %d of %d packets", weight, stride*lanes, packets)
			}
		})
	}
}
