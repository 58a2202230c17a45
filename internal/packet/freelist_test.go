package packet

import "testing"

func TestFreeListRecyclesLIFOAndZeroes(t *testing.T) {
	fl := NewFreeList()
	a, b := fl.Get(), fl.Get()
	if a == b {
		t.Fatal("two Gets returned one descriptor")
	}
	a.ID, a.Migrated, a.HashOK = 7, true, true
	b.ID = 8
	fl.Put(a)
	fl.Put(b)
	fl.Put(nil)
	if got := fl.Get(); got != b {
		t.Fatal("Get did not return the most recently Put descriptor")
	}
	got := fl.Get()
	if got != a {
		t.Fatal("Get did not return the earlier descriptor second")
	}
	if *got != (Packet{}) {
		t.Fatalf("recycled descriptor not zeroed: %+v", *got)
	}
	if p := fl.Get(); p == a || p == b || *p != (Packet{}) {
		t.Fatal("empty list did not allocate a fresh zero descriptor")
	}
}

func TestFreeListNilIsValid(t *testing.T) {
	var fl *FreeList
	p := fl.Get()
	if p == nil || *p != (Packet{}) {
		t.Fatal("nil list Get did not allocate a zero descriptor")
	}
	p.ID = 3
	fl.Put(p)
	if p.ID != 3 {
		t.Fatal("nil list Put touched the descriptor")
	}
}

func TestFreeListPoison(t *testing.T) {
	restore := PoisonFreeLists(true)
	fl := NewFreeList()
	restore()
	if NewFreeList().poison {
		t.Fatal("restore left poisoning on")
	}
	p := fl.Get()
	p.ID = 1
	if Poisoned(p) {
		t.Fatal("live descriptor reads as poisoned")
	}
	fl.Put(p)
	if !Poisoned(p) {
		t.Fatal("Put did not poison the descriptor")
	}
	if q := fl.Get(); q == p || Poisoned(q) {
		t.Fatal("poisoning list put a returned descriptor back in circulation")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("second Put of one descriptor did not panic")
		}
	}()
	fl.Put(p)
}
