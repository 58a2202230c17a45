package runtime

import (
	stdrt "runtime"
	"testing"

	"laps/internal/crc"
	"laps/internal/npsim"
	"laps/internal/packet"
	"laps/internal/trace"
)

// These tests run the engines with packet recycling wired end to end —
// pool Get at the source, pool Put at retirement and every drop site —
// under a flapping scheduler so fenced migrations, and therefore the
// dispatcher's post-publish bookkeeping, happen constantly. Recycling
// must not change any contract: zero out-of-order departures, zero
// drops in block mode, conservation. Unlike the AllocsPerRun guard
// (which the race detector's own allocations exclude), these run in
// the -race lane, where they police the ownership rule directly: a
// recycled packet is rewritten by the source immediately, so any read
// of a packet after it was published to a ring is a reported race.

// feedRecycled mirrors feed but draws every packet from
// the pool, as run.go does when RunConfig.Recycle is set.
func feedRecycled(tb testing.TB, pool *packet.Pool, dispatch func(*packet.Packet) bool, n, services int, seed uint64) {
	tb.Helper()
	srcs := make([]trace.Source, services)
	for s := range srcs {
		srcs[s] = trace.NewSynthetic(trace.SynthConfig{
			Name: "rt", Flows: 500, Skew: 1.1, Seed: seed + uint64(s)*977,
		})
	}
	seqs := make(map[packet.FlowKey]uint64, 4096)
	for i := 0; i < n; i++ {
		svc := packet.ServiceID(i % services)
		rec, _ := srcs[svc].Next()
		p := pool.Get()
		p.ID = uint64(i + 1)
		p.Flow = rec.Flow
		p.Service = svc
		p.Size = rec.Size
		p.FlowSeq = seqs[rec.Flow]
		seqs[rec.Flow]++
		crc.Prime(p)
		dispatch(p)
		if i%feedYield == feedYield-1 {
			stdrt.Gosched()
		}
	}
}

// recycleModes are the worker configurations the storms run under. The
// no-handler row is the measurement path; the other two are what ships:
// a Handler that reads every field, so a batch recycled before its
// handlers or its tracker records are done is a reported race (and a
// zeroed descriptor in the handler even without -race), alone and with
// WorkSpin stretching each batch so fences are held across it.
var recycleModes = []struct {
	name    string
	handler bool
	work    WorkKind
}{
	{"no handler", false, WorkNone},
	{"handler", true, WorkNone},
	{"handler+spin", true, WorkSpin},
}

// fieldReader is a Handler that reads every field of every packet into
// a per-worker lane and counts descriptors that reached it already
// recycled (the source stamps ID >= 1 and primes the hash).
type fieldReader struct {
	lanes [4]struct {
		sum, recycled uint64
		_             [48]byte
	}
}

func (r *fieldReader) handle(w int, p *packet.Packet) {
	l := &r.lanes[w]
	if p.ID == 0 || !p.HashOK || p.Hash != crc.FlowHash(p.Flow) {
		l.recycled++
	}
	b := p.Flow.Bytes()
	for _, x := range b {
		l.sum += uint64(x)
	}
	l.sum += p.ID + uint64(p.Service) + uint64(p.Size) + uint64(p.Arrival) + p.FlowSeq +
		uint64(p.Enqueued) + uint64(p.Departed)
	if p.Migrated || p.ColdMiss {
		l.sum++
	}
}

func (r *fieldReader) recycledEarly() (n uint64) {
	for i := range r.lanes {
		n += r.lanes[i].recycled
	}
	return n
}

// withMode applies one recycleModes row to cfg (4 workers).
func withMode(cfg Config, handler bool, work WorkKind) (Config, *fieldReader) {
	cfg.Work, cfg.WorkFactor = work, 0.05
	if !handler {
		return cfg, nil
	}
	r := &fieldReader{}
	cfg.Handler = r.handle
	return cfg, r
}

func TestRecycledDispatchOrderingStorm(t *testing.T) { recycledOrderingStorm(t, engineRow) }
func TestRecycledShardedOrderingStorm(t *testing.T)  { recycledOrderingStorm(t, shardedRows) }

func recycledOrderingStorm(t *testing.T, rows []owner) {
	for _, m := range recycleModes {
		t.Run(m.name, func(t *testing.T) {
			each(t, rows, func(t *testing.T, o owner) {
				pool := packet.NewPool()
				cfg, reader := withMode(Config{
					Workers: 4,
					RingCap: 64,
					Batch:   16,
					Sched:   pick[npsim.Scheduler](o, &flapSched{n: 4, period: 400}, &snapFlap{n: 4, period: 400}),
					Policy:  BlockWhenFull,
					Pool:    pool,
				}, m.handler, m.work)
				r := o.start(t, cfg)
				feedRecycled(t, pool, r.offer, 60000, 2, 21)
				res := r.stop()
				checkConservation(t, res)
				if res.OutOfOrder != 0 {
					t.Fatalf("recycling broke fencing: %d out-of-order departures", res.OutOfOrder)
				}
				if res.Dropped != 0 {
					t.Fatalf("block-mode run dropped %d packets", res.Dropped)
				}
				if res.Migrations == 0 {
					t.Fatal("flap scheduler migrated nothing; storm not exercised")
				}
				if reader != nil && reader.recycledEarly() != 0 {
					t.Fatalf("%d packets were recycled before their handler ran", reader.recycledEarly())
				}
			})
		})
	}
}
