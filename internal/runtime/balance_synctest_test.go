//go:build goexperiment.synctest

// Balance on a virtual clock: the migration stream through each lane
// owner inside a testing/synctest bubble, where time advances only when
// every goroutine of the run is blocked, so an emulated WorkSleep batch
// takes exactly its modeled time however loaded the host is. Run with
//
//	GOEXPERIMENT=synctest GODEBUG=asynctimerchan=0 go test ./internal/runtime -run TestBalanceOnVirtualClock -v
//
// go.mod's language version selects the old asynchronous timer
// channels, under which synctest.Run panics; asynctimerchan=0 turns
// them off. WorkSpin cannot run in a bubble: it busy-waits on a clock
// that never advances while it spins.

package runtime

import (
	"slices"
	"strings"
	"sync"
	"testing"
	"testing/synctest"
	"time"
)

// balanceRuns is how many bubbles each owner runs the stream in.
const balanceRuns = 60

// balanceTick is the occupancy sampling interval, in virtual time: a
// run covers about 15 ms of it.
const balanceTick = 50 * time.Microsecond

// TestBalanceOnVirtualClock runs TestLAPSMigratesOnSampledFeedback's
// stream with WorkSleep in a bubble, balanceRuns times per owner, and
// reports the spread of LAPS's migration count and of worker occupancy:
// each worker's queue depth (ring plus in service) averaged over the
// run, sampled every balanceTick, max over mean across workers. Each run
// must conserve packets, lose none and reorder none; those checks run
// inside the bubble. Runnable goroutines still interleave freely, so the
// counts vary from run to run, but not with host load.
func TestBalanceOnVirtualClock(t *testing.T) {
	for _, owner := range migrationOwners {
		t.Run(owner.name, func(t *testing.T) {
			// The bubble's writes reach the reads below through mu; the
			// race detector sees no other edge out of synctest.Run.
			var (
				mu   sync.Mutex
				migs []uint64
				occ  []float64
			)
			for run := 0; run < balanceRuns; run++ {
				synctest.Run(func() {
					l := migrationLAPS()
					cfg := migrationConfig(l, WorkSleep)
					cfg.MetricsInterval = balanceTick
					offer, stop, err := owner.start(cfg)
					if err != nil {
						t.Error(err)
						return
					}
					feedMigrationStream(offer)
					res := stop()
					if res.Processed+res.Dropped != res.Dispatched || res.Dropped != 0 || res.OutOfOrder != 0 {
						t.Errorf("run %d: dispatched %d, processed %d, dropped %d, out of order %d",
							run, res.Dispatched, res.Processed, res.Dropped, res.OutOfOrder)
					}
					var sum, most float64
					for c, name := range res.Series.Names() {
						if strings.HasPrefix(name, "worker") && strings.HasSuffix(name, ".q") {
							q := res.Series.ColMean(c)
							sum += q
							most = max(most, q)
						}
					}
					mu.Lock()
					migs = append(migs, l.Stats().Migrations)
					occ = append(occ, most*float64(cfg.Workers)/sum)
					mu.Unlock()
				})
			}
			mu.Lock()
			defer mu.Unlock()
			slices.Sort(migs)
			slices.Sort(occ)
			t.Logf("scheduler migrations over %d runs: min %d, median %d, max %d",
				len(migs), migs[0], migs[len(migs)/2], migs[len(migs)-1])
			t.Logf("occupancy max/mean: min %.3f, median %.3f, max %.3f",
				occ[0], occ[len(occ)/2], occ[len(occ)-1])
			if migs[len(migs)-1] == 0 {
				t.Errorf("LAPS never migrated in %d runs", len(migs))
			}
		})
	}
}
