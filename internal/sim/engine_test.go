package sim

import (
	"math/rand/v2"
	"sort"
	"testing"
	"testing/quick"
)

func TestEngineStartsAtZero(t *testing.T) {
	e := NewEngine()
	if e.Now() != 0 {
		t.Fatalf("Now() = %v, want 0", e.Now())
	}
	if len(e.events) != 0 {
		t.Fatalf("pending events = %d, want 0", len(e.events))
	}
}

func TestEngineRunsEventsInTimeOrder(t *testing.T) {
	e := NewEngine()
	var got []Time
	for _, at := range []Time{30, 10, 20, 5, 25} {
		at := at
		e.At(at, func() { got = append(got, at) })
	}
	e.Run()
	want := []Time{5, 10, 20, 25, 30}
	if len(got) != len(want) {
		t.Fatalf("ran %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("event order %v, want %v", got, want)
		}
	}
}

func TestEngineFIFOAmongEqualTimestamps(t *testing.T) {
	e := NewEngine()
	var got []int
	for i := 0; i < 100; i++ {
		i := i
		e.At(42, func() { got = append(got, i) })
	}
	e.Run()
	for i := range got {
		if got[i] != i {
			t.Fatalf("equal-timestamp events reordered: got[%d] = %d", i, got[i])
		}
	}
}

func TestEngineClockAdvancesToEventTime(t *testing.T) {
	e := NewEngine()
	var at Time
	e.At(123*Microsecond, func() { at = e.Now() })
	e.Run()
	if at != 123*Microsecond {
		t.Fatalf("clock at event = %v, want 123us", at)
	}
	if e.Now() != 123*Microsecond {
		t.Fatalf("final clock = %v, want 123us", e.Now())
	}
}

func TestEngineAfterIsRelative(t *testing.T) {
	e := NewEngine()
	var second Time
	e.At(100, func() {
		e.After(50, func() { second = e.Now() })
	})
	e.Run()
	if second != 150 {
		t.Fatalf("After fired at %v, want 150", second)
	}
}

func TestEngineSchedulingInPastPanics(t *testing.T) {
	e := NewEngine()
	e.At(100, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		e.At(50, func() {})
	})
	e.Run()
}

func TestEngineNegativeAfterPanics(t *testing.T) {
	e := NewEngine()
	defer func() {
		if recover() == nil {
			t.Error("negative After did not panic")
		}
	}()
	e.After(-1, func() {})
}

func TestEngineRunUntilLeavesLaterEventsPending(t *testing.T) {
	e := NewEngine()
	ran := 0
	for _, at := range []Time{10, 20, 30, 40} {
		e.At(at, func() { ran++ })
	}
	n := e.RunUntil(25)
	if n != 2 || ran != 2 {
		t.Fatalf("RunUntil(25) ran %d events (ret %d), want 2", ran, n)
	}
	if len(e.events) != 2 {
		t.Fatalf("pending events = %d, want 2", len(e.events))
	}
	if e.Now() != 25 {
		t.Fatalf("clock after RunUntil = %v, want 25", e.Now())
	}
	e.Run()
	if ran != 4 {
		t.Fatalf("after Run, ran = %d, want 4", ran)
	}
}

func TestEngineRunUntilInclusive(t *testing.T) {
	e := NewEngine()
	ran := false
	e.At(25, func() { ran = true })
	e.RunUntil(25)
	if !ran {
		t.Fatal("event exactly at limit did not run")
	}
}

func TestEngineProcessedCounter(t *testing.T) {
	e := NewEngine()
	for i := 0; i < 7; i++ {
		e.At(Time(i), func() {})
	}
	if n := e.Run(); n != 7 {
		t.Fatalf("Run processed %d events, want 7", n)
	}
	e.At(10, func() {})
	e.At(20, func() {})
	if n := e.RunUntil(15); n != 1 {
		t.Fatalf("RunUntil(15) processed %d events, want 1", n)
	}
}

func TestEngineCascadedEvents(t *testing.T) {
	// An event chain where each event schedules the next; checks that
	// the heap handles interleaved push/pop correctly.
	e := NewEngine()
	const depth = 1000
	count := 0
	var step func()
	step = func() {
		count++
		if count < depth {
			e.After(3, step)
		}
	}
	e.At(0, step)
	e.Run()
	if count != depth {
		t.Fatalf("chain ran %d steps, want %d", count, depth)
	}
	if e.Now() != Time(3*(depth-1)) {
		t.Fatalf("final clock = %v, want %v", e.Now(), Time(3*(depth-1)))
	}
}

// Property: for any multiset of timestamps, dispatch order is the sorted
// order, and among duplicates the insertion order.
func TestEngineDispatchOrderProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) > 512 {
			raw = raw[:512]
		}
		e := NewEngine()
		type fired struct {
			at  Time
			idx int
		}
		var got []fired
		for i, r := range raw {
			at := Time(r)
			i := i
			e.At(at, func() { got = append(got, fired{at, i}) })
		}
		e.Run()
		if len(got) != len(raw) {
			return false
		}
		if !sort.SliceIsSorted(got, func(i, j int) bool {
			if got[i].at != got[j].at {
				return got[i].at < got[j].at
			}
			return got[i].idx < got[j].idx
		}) {
			return false
		}
		// Must be a permutation: indices all distinct.
		seen := make(map[int]bool, len(got))
		for _, g := range got {
			if seen[g.idx] {
				return false
			}
			seen[g.idx] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestTimeString(t *testing.T) {
	cases := []struct {
		t    Time
		want string
	}{
		{500, "500ns"},
		{1500, "1.5us"},
		{2 * Millisecond, "2ms"},
		{3 * Second, "3s"},
	}
	for _, c := range cases {
		if got := c.t.String(); got != c.want {
			t.Errorf("Time(%d).String() = %q, want %q", int64(c.t), got, c.want)
		}
	}
}

func TestTimeConversions(t *testing.T) {
	if s := (2500 * Millisecond).Seconds(); s != 2.5 {
		t.Errorf("Seconds() = %v, want 2.5", s)
	}
	if us := (3 * Microsecond).Micros(); us != 3 {
		t.Errorf("Micros() = %v, want 3", us)
	}
}

func BenchmarkEngineScheduleAndRun(b *testing.B) {
	rng := rand.New(rand.NewPCG(1, 2))
	e := NewEngine()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.At(e.Now()+Time(rng.Int64N(1000)), func() {})
		if len(e.events) > 1024 {
			e.RunUntil(e.Now() + 100)
		}
	}
	e.Run()
}
