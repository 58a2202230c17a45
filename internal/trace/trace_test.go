package trace

import (
	"bytes"
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"

	"laps/internal/packet"
	"laps/internal/sim"
)

// prob returns the probability Zipf z assigns to rank.
func prob(z *Zipf, rank int) float64 {
	if rank == 0 {
		return z.cdf[0]
	}
	return z.cdf[rank] - z.cdf[rank-1]
}

// collect drains up to n records from src.
func collect(src Source, n int) []Record {
	out := make([]Record, 0, n)
	for i := 0; i < n; i++ {
		rec, ok := src.Next()
		if !ok {
			break
		}
		out = append(out, rec)
	}
	return out
}

func TestZipfPanics(t *testing.T) {
	for _, fn := range []func(){
		func() { NewZipf(1.0, 0) },
		func() { NewZipf(-0.5, 10) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("bad Zipf config did not panic")
				}
			}()
			fn()
		}()
	}
}

func TestZipfProbabilitiesSumToOne(t *testing.T) {
	z := NewZipf(1.1, 1000)
	sum := 0.0
	for i := 0; i < len(z.cdf); i++ {
		sum += prob(z, i)
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("probabilities sum to %v", sum)
	}
}

func TestZipfRankInRange(t *testing.T) {
	f := func(seed uint64) bool {
		z := NewZipf(1.2, 100)
		rng := rand.New(rand.NewPCG(seed, 1))
		for i := 0; i < 100; i++ {
			r := z.Rank(rng)
			if r < 0 || r >= 100 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestZipfSkewShape(t *testing.T) {
	// Rank 0 should dominate and empirical frequencies should roughly
	// track the analytic probabilities.
	z := NewZipf(1.0, 50)
	rng := rand.New(rand.NewPCG(3, 4))
	counts := make([]int, 50)
	const n = 200000
	for i := 0; i < n; i++ {
		counts[z.Rank(rng)]++
	}
	for rank := 0; rank < 5; rank++ {
		want := prob(z, rank) * n
		got := float64(counts[rank])
		if got < want*0.9 || got > want*1.1 {
			t.Errorf("rank %d count %.0f, want ~%.0f", rank, got, want)
		}
	}
	if counts[0] <= counts[10] {
		t.Error("rank 0 not dominant")
	}
}

func TestZipfZeroExponentIsUniform(t *testing.T) {
	z := NewZipf(0, 4)
	for i := 0; i < 4; i++ {
		if math.Abs(prob(z, i)-0.25) > 1e-9 {
			t.Fatalf("P(%d) = %v, want 0.25", i, prob(z, i))
		}
	}
}

func TestSyntheticDeterministic(t *testing.T) {
	mk := func() []Record {
		s := NewSynthetic(SynthConfig{Name: "t", Flows: 1000, Skew: 1.1, Churn: 0.01, Seed: 42})
		return collect(s, 5000)
	}
	a, b := mk(), mk()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("record %d differs across identical sources", i)
		}
	}
}

func TestSyntheticSkewedFlowSizes(t *testing.T) {
	s := NewSynthetic(SynthConfig{Name: "t", Flows: 10000, Skew: 1.1, Seed: 7})
	counts := map[packet.FlowKey]int{}
	const n = 200000
	for i := 0; i < n; i++ {
		rec, _ := s.Next()
		counts[rec.Flow]++
	}
	// Top flow should carry a disproportionate share (Fig 2 shape) and
	// there should be a long tail of small flows.
	max, small := 0, 0
	for _, c := range counts {
		if c > max {
			max = c
		}
		if c <= 2 {
			small++
		}
	}
	if max < n/100 {
		t.Errorf("largest flow only %d packets of %d; skew too weak", max, n)
	}
	if small < len(counts)/3 {
		t.Errorf("only %d of %d flows are tiny; tail too thin", small, len(counts))
	}
}

func TestSyntheticChurnReplacesTailFlows(t *testing.T) {
	s := NewSynthetic(SynthConfig{Name: "t", Flows: 1000, Skew: 1.0, Churn: 0.05, HotFlows: 16, Seed: 9})
	seen := map[packet.FlowKey]bool{}
	for i := 0; i < 100000; i++ {
		rec, _ := s.Next()
		seen[rec.Flow] = true
	}
	// With churn the distinct-flow count must exceed the population size.
	if len(seen) <= 1000 {
		t.Fatalf("saw %d distinct flows, want > 1000 (churn inactive)", len(seen))
	}
	// Without churn it cannot.
	s2 := NewSynthetic(SynthConfig{Name: "t", Flows: 1000, Skew: 1.0, Seed: 9})
	seen2 := map[packet.FlowKey]bool{}
	for i := 0; i < 100000; i++ {
		rec, _ := s2.Next()
		seen2[rec.Flow] = true
	}
	if len(seen2) > 1000 {
		t.Fatalf("saw %d distinct flows without churn, want <= 1000", len(seen2))
	}
}

func TestSyntheticSizesFromMixture(t *testing.T) {
	s := NewSynthetic(SynthConfig{Name: "t", Flows: 10, Skew: 1, Seed: 1,
		Sizes: []SizePoint{{64, 0.5}, {1500, 0.5}}})
	got := map[int]int{}
	for i := 0; i < 10000; i++ {
		rec, _ := s.Next()
		got[rec.Size]++
	}
	if len(got) != 2 || got[64] == 0 || got[1500] == 0 {
		t.Fatalf("sizes %v, want only 64 and 1500", got)
	}
	frac := float64(got[64]) / 10000
	if frac < 0.45 || frac > 0.55 {
		t.Fatalf("64B fraction %.3f, want ~0.5", frac)
	}
}

func TestSyntheticUniqueKeysAcrossChurn(t *testing.T) {
	// freshKey must never produce duplicates (bijective counter mixing).
	s := NewSynthetic(SynthConfig{Name: "t", Flows: 5000, Skew: 1, Churn: 0.5, HotFlows: 1, Seed: 3})
	keys := map[packet.FlowKey]bool{}
	for _, k := range s.keys {
		if keys[k] {
			t.Fatalf("duplicate initial key %v", k)
		}
		keys[k] = true
	}
	for i := 0; i < 50000; i++ {
		s.Next()
	}
	for _, k := range s.keys {
		_ = k // population keys remain well-formed
	}
}

func TestPresetsDiffer(t *testing.T) {
	c1, c2 := CAIDALike(1), CAIDALike(2)
	if c1.Name() == c2.Name() {
		t.Fatal("preset names collide")
	}
	r1, _ := c1.Next()
	r2, _ := c2.Next()
	if r1.Flow == r2.Flow {
		t.Fatal("different preset instances emit identical first flows")
	}
	a := AucklandLike(1)
	if a.cfg.Flows >= c1.cfg.Flows {
		t.Fatal("Auckland-like preset should have fewer flows than CAIDA-like")
	}
}

func TestReplaySource(t *testing.T) {
	recs := []Record{
		{Flow: packet.FlowKey{SrcIP: 1}, Size: 64},
		{Flow: packet.FlowKey{SrcIP: 2}, Size: 128},
	}
	r := NewReplay("replay", recs, false)
	if r.Name() != "replay" {
		t.Fatal("name lost")
	}
	var got []Record
	for {
		rec, ok := r.Next()
		if !ok {
			break
		}
		got = append(got, rec)
	}
	if len(got) != 2 || got[0] != recs[0] || got[1] != recs[1] {
		t.Fatalf("replay = %v", got)
	}
	// Looping replay keeps going.
	lr := NewReplay("loop", recs, true)
	for i := 0; i < 7; i++ {
		rec, ok := lr.Next()
		if !ok {
			t.Fatal("looping replay exhausted")
		}
		if rec != recs[i%2] {
			t.Fatalf("loop iteration %d = %v", i, rec)
		}
	}
	// Empty looping replay must terminate, not spin.
	er := NewReplay("empty", nil, true)
	if _, ok := er.Next(); ok {
		t.Fatal("empty replay produced a record")
	}
}

func TestCollectStopsAtExhaustion(t *testing.T) {
	r := NewReplay("r", []Record{{Size: 1}, {Size: 2}}, false)
	got := collect(r, 10)
	if len(got) != 2 {
		t.Fatalf("Collect = %d records, want 2", len(got))
	}
}

func TestPcapRoundTrip(t *testing.T) {
	src := NewSynthetic(SynthConfig{Name: "t", Flows: 100, Skew: 1.1, Seed: 5})
	var recs []TimedRecord
	ts := sim.Time(0)
	for i := 0; i < 500; i++ {
		rec, _ := src.Next()
		ts += sim.Time(i%50) * sim.Microsecond
		recs = append(recs, TimedRecord{Record: rec, TS: ts})
	}
	var buf bytes.Buffer
	if err := WritePcap(&buf, recs); err != nil {
		t.Fatalf("WritePcap: %v", err)
	}
	got, err := ReadPcap(&buf)
	if err != nil {
		t.Fatalf("ReadPcap: %v", err)
	}
	if len(got) != len(recs) {
		t.Fatalf("read %d records, want %d", len(got), len(recs))
	}
	for i := range recs {
		if got[i].Flow != recs[i].Flow {
			t.Fatalf("record %d flow %v, want %v", i, got[i].Flow, recs[i].Flow)
		}
		wantSize := recs[i].Size
		if wantSize < ethHeaderLen+ipv4HeaderLen+udpHeaderLen {
			// tiny frames are padded up to the synthesised header length
			continue
		}
		if got[i].Size != wantSize {
			t.Fatalf("record %d size %d, want %d", i, got[i].Size, wantSize)
		}
		// Timestamps round to microseconds in pcap.
		wantTS := recs[i].TS / sim.Microsecond * sim.Microsecond
		if got[i].TS != wantTS {
			t.Fatalf("record %d ts %v, want %v", i, got[i].TS, wantTS)
		}
	}
}

func TestPcapValidIPChecksums(t *testing.T) {
	recs := []TimedRecord{
		{Record: Record{Flow: packet.FlowKey{SrcIP: 0x01020304, DstIP: 0x05060708, SrcPort: 80, DstPort: 443, Proto: packet.ProtoTCP}, Size: 500}},
	}
	var buf bytes.Buffer
	if err := WritePcap(&buf, recs); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	ip := raw[24+16+ethHeaderLen : 24+16+ethHeaderLen+ipv4HeaderLen]
	if !verifyIPChecksum(ip) {
		t.Fatal("written IPv4 header checksum invalid")
	}
}

func TestPcapRejectsGarbage(t *testing.T) {
	if _, err := ReadPcap(bytes.NewReader([]byte("not a pcap at all........"))); err != ErrNotPcap {
		t.Fatalf("err = %v, want ErrNotPcap", err)
	}
	if _, err := ReadPcap(bytes.NewReader(nil)); err != ErrNotPcap {
		t.Fatalf("empty stream err = %v, want ErrNotPcap", err)
	}
}

func TestPcapTruncatedFrameError(t *testing.T) {
	recs := []TimedRecord{{Record: Record{Flow: packet.FlowKey{Proto: packet.ProtoTCP}, Size: 64}}}
	var buf bytes.Buffer
	if err := WritePcap(&buf, recs); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	if _, err := ReadPcap(bytes.NewReader(raw[:len(raw)-5])); err == nil {
		t.Fatal("truncated pcap parsed without error")
	}
}

func TestPcapSkipsNonIPFrames(t *testing.T) {
	var buf bytes.Buffer
	recs := []TimedRecord{{Record: Record{Flow: packet.FlowKey{SrcIP: 9, Proto: packet.ProtoUDP}, Size: 100}}}
	if err := WritePcap(&buf, recs); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	// Corrupt the ethertype of the only frame: it should be skipped.
	copy(raw[24+16+12:], []byte{0x86, 0xDD}) // IPv6
	got, err := ReadPcap(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("parsed %d records from non-IPv4 capture, want 0", len(got))
	}
}

func TestPcapUnsupportedProtocolError(t *testing.T) {
	var buf bytes.Buffer
	err := WritePcap(&buf, []TimedRecord{{Record: Record{Flow: packet.FlowKey{Proto: 47}, Size: 64}}})
	if err == nil {
		t.Fatal("GRE frame written without error")
	}
}

func BenchmarkSyntheticNext(b *testing.B) {
	s := NewSynthetic(SynthConfig{Name: "b", Flows: 100000, Skew: 1.1, Churn: 0.01, Seed: 1})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Next()
	}
}

func BenchmarkZipfRank(b *testing.B) {
	z := NewZipf(1.1, 1<<17)
	rng := rand.New(rand.NewPCG(1, 2))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		z.Rank(rng)
	}
}
