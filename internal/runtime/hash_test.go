package runtime

import (
	"context"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"laps/internal/crc"
	"laps/internal/packet"
)

// TestRecoveryPreservesFlowHash closes the hash-once property over the
// hardest path: packets stranded on a killed worker are re-injected by
// recovery, and every packet retired anywhere — plain dispatch, fenced,
// or re-injected — must still carry the cached hash it was primed with
// at dispatch, equal to FlowHash of its 5-tuple.
//
// The kill fires at a batch boundary, and strands only what is in the
// victim's ring at that instant. The victim therefore retires nothing
// until a few batches are queued behind the one in its hands: the
// backlog recovery must re-inject is a fact, not a race with the feeder.
func TestRecoveryPreservesFlowHash(t *testing.T) {
	const victim, batch = 1, 16
	var violations, unprimed atomic.Uint64
	plan := &FaultPlan{Faults: []Fault{{Worker: victim, After: 300, Kind: FaultKill}}}
	var e *Engine
	giveUp := time.Now().Add(10 * time.Second) // a feeder that stopped must fail the test, not hang it
	e, err := New(Config{
		Workers: 4,
		RingCap: 256,
		Batch:   batch,
		Sched:   hashSched{n: 4},
		Policy:  BlockWhenFull,
		Faults:  plan,
		Handler: func(w int, p *packet.Packet) {
			for w == victim && e.workers[victim].queueLen() < 4*batch && time.Now().Before(giveUp) {
				runtime.Gosched()
			}
			if !p.HashOK {
				unprimed.Add(1)
				return
			}
			if p.Hash != crc.FlowHash(p.Flow) {
				violations.Add(1)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	e.Start(context.Background())
	feed(t, e.Dispatch, e.Now, 20000, 2, 11)
	res := e.Stop()
	if res.WorkerDeaths == 0 {
		t.Fatal("kill fault did not fire; recovery path not exercised")
	}
	if res.Reinjected == 0 {
		t.Fatal("no packets were re-injected; recovery path not exercised")
	}
	if n := unprimed.Load(); n != 0 {
		t.Fatalf("%d packets retired without a primed hash", n)
	}
	if n := violations.Load(); n != 0 {
		t.Fatalf("%d packets retired with a stale cached hash", n)
	}
}
