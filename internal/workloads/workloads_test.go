package workloads

import (
	"math"
	"math/rand/v2"
	"testing"
)

func TestZipfSkew(t *testing.T) {
	z := NewZipf(1000, 0.99)
	r := rand.New(rand.NewPCG(1, 1))
	counts := make([]int, 1000)
	const n = 200000
	for i := 0; i < n; i++ {
		rank := z.Next(r)
		if rank >= 1000 {
			t.Fatalf("rank %d out of range", rank)
		}
		counts[rank]++
	}
	// Rank 0 should dominate: with theta=0.99 over 1000 items, the top item
	// gets ≈13% of traffic.
	if frac := float64(counts[0]) / n; frac < 0.08 || frac > 0.2 {
		t.Errorf("rank-0 fraction = %v, want ~0.13", frac)
	}
	// Popularity must be monotone-ish: top 10 >> bottom 500.
	top := 0
	for _, c := range counts[:10] {
		top += c
	}
	bottom := 0
	for _, c := range counts[500:] {
		bottom += c
	}
	if top < bottom {
		t.Errorf("top-10 (%d) should exceed bottom-500 (%d)", top, bottom)
	}
}

func TestZipfDeterministic(t *testing.T) {
	draw := func() []uint64 {
		z := NewZipf(100, 0.99)
		r := rand.New(rand.NewPCG(7, 7))
		out := make([]uint64, 50)
		for i := range out {
			out[i] = z.Next(r)
		}
		return out
	}
	a, b := draw(), draw()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("zipf not deterministic")
		}
	}
}

func TestZipfInvalidParams(t *testing.T) {
	for _, f := range []func(){
		func() { NewZipf(0, 0.99) },
		func() { NewZipf(10, 0) },
		func() { NewZipf(10, 1.0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("invalid params accepted")
				}
			}()
			f()
		}()
	}
}

func TestGoogleDistMatchesPaperFractions(t *testing.T) {
	d := GoogleBytesDist()
	r := rand.New(rand.NewPCG(2, 2))
	const n = 200000
	le8, le512 := 0, 0
	for i := 0; i < n; i++ {
		s := d.Sample(r)
		if s <= 0 {
			t.Fatalf("non-positive size %d", s)
		}
		if s <= 8 {
			le8++
		}
		if s <= 512 {
			le512++
		}
	}
	// Paper: 34% ≤ 8 bytes, 94.9% ≤ 512 bytes.
	if f := float64(le8) / n; math.Abs(f-0.34) > 0.02 {
		t.Errorf("P(size<=8) = %v, want ~0.34", f)
	}
	if f := float64(le512) / n; math.Abs(f-0.949) > 0.02 {
		t.Errorf("P(size<=512) = %v, want ~0.949", f)
	}
}

func TestTwitterDistLargeFraction(t *testing.T) {
	d := TwitterValueDist()
	r := rand.New(rand.NewPCG(3, 3))
	const n = 200000
	big := 0
	for i := 0; i < n; i++ {
		if d.Sample(r) >= 512 {
			big++
		}
	}
	// Paper: about 32% of requests query objects ≥ 512 bytes.
	if f := float64(big) / n; math.Abs(f-0.32) > 0.03 {
		t.Errorf("P(size>=512) = %v, want ~0.32", f)
	}
}

func TestFracAbove(t *testing.T) {
	d := TwitterValueDist()
	if f := d.FracAbove(512); math.Abs(f-0.32) > 0.02 {
		t.Errorf("FracAbove(512) = %v", f)
	}
	if f := d.FracAbove(0); f != 1.0 {
		t.Errorf("FracAbove(0) = %v", f)
	}
	if f := d.FracAbove(8192); f != 0 {
		t.Errorf("FracAbove(max) = %v", f)
	}
}

func TestYCSB(t *testing.T) {
	y := NewYCSB(100, 512, 4)
	recs := y.Records()
	if len(recs) != 100 {
		t.Fatalf("records = %d", len(recs))
	}
	for _, rec := range recs[:5] {
		if len(rec.Key) != 30 {
			t.Errorf("key width %d, want 30", len(rec.Key))
		}
		if len(rec.Vals) != 4 {
			t.Errorf("segments %d, want 4", len(rec.Vals))
		}
		for _, v := range rec.Vals {
			if len(v) != 512 {
				t.Errorf("segment size %d, want 512", len(v))
			}
		}
	}
	r := rand.New(rand.NewPCG(4, 4))
	req := y.Next(r)
	if req.Op != OpGetList || len(req.Keys) != 1 {
		t.Errorf("request = %+v", req)
	}
	if y.Name() != "ycsb-512x4" {
		t.Errorf("name = %q", y.Name())
	}
	// Value bytes are byte(record + segment + offset), whatever the
	// segment size.
	for _, size := range []int{512, 700, 2048} {
		for i, rec := range NewYCSB(300, size, 3).Records() {
			for j, v := range rec.Vals {
				for b, got := range v {
					if want := byte(i + j + b); got != want {
						t.Fatalf("size %d: record %d segment %d byte %d = %d, want %d", size, i, j, b, got, want)
					}
				}
			}
		}
	}
}

func TestGoogleWorkload(t *testing.T) {
	g := NewGoogle(200, 8, 1)
	recs := g.Records()
	if len(recs) != 200 {
		t.Fatal("wrong record count")
	}
	for _, rec := range recs {
		if len(rec.Vals) < 1 || len(rec.Vals) > 8 {
			t.Errorf("list length %d outside [1,8]", len(rec.Vals))
		}
		total := 0
		for _, v := range rec.Vals {
			total += len(v)
		}
		if total > 8000 {
			t.Errorf("object %d bytes exceeds MTU budget", total)
		}
		if len(rec.Key) != 64 {
			t.Errorf("key width %d, want 64", len(rec.Key))
		}
	}
	r := rand.New(rand.NewPCG(5, 5))
	if req := g.Next(r); req.Op != OpGetList {
		t.Error("google request op wrong")
	}
}

func TestTwitterWorkload(t *testing.T) {
	w := NewTwitter(500, 9)
	recs := w.Records()
	if len(recs) != 500 {
		t.Fatal("wrong record count")
	}
	r := rand.New(rand.NewPCG(6, 6))
	puts, gets := 0, 0
	for i := 0; i < 20000; i++ {
		req := w.Next(r)
		switch req.Op {
		case OpPut:
			puts++
			if len(req.Vals) != 1 || len(req.Vals[0]) == 0 {
				t.Fatal("put without value")
			}
		case OpGet:
			gets++
		default:
			t.Fatalf("unexpected op %v", req.Op)
		}
	}
	if f := float64(puts) / float64(puts+gets); math.Abs(f-0.08) > 0.01 {
		t.Errorf("put fraction = %v, want ~0.08", f)
	}
}

func TestCDNWorkload(t *testing.T) {
	c := NewCDN(300, 8192, 1<<20, 11)
	recs := c.Records()
	totalBytes, totalSegs := 0, 0
	for i, rec := range recs {
		objBytes := 0
		for _, v := range rec.Vals {
			if len(v) > 8192 {
				t.Errorf("segment larger than jumbo budget: %d", len(v))
			}
			objBytes += len(v)
		}
		if objBytes < 1000 {
			t.Errorf("object %d is %d bytes, below the 1000-byte floor", i, objBytes)
		}
		if c.SegmentsOf(i) != len(rec.Vals) {
			t.Errorf("SegmentsOf(%d) = %d, want %d", i, c.SegmentsOf(i), len(rec.Vals))
		}
		totalBytes += objBytes
		totalSegs += len(rec.Vals)
	}
	mean := float64(totalBytes) / float64(len(recs))
	if mean < 8000 || mean > 60000 {
		t.Errorf("mean object size = %v, want ≈20000", mean)
	}
	r := rand.New(rand.NewPCG(8, 8))
	req := c.Next(r)
	if req.Op != OpGetIndex || req.Index < 1 {
		t.Errorf("cdn request = %+v", req)
	}
}

func TestOpStrings(t *testing.T) {
	for _, op := range []Op{OpGet, OpGetM, OpGetList, OpGetIndex, OpPut} {
		if op.String() == "" {
			t.Error("empty op string")
		}
	}
	if Op(77).String() != "Op(77)" {
		t.Error("unknown op string")
	}
}

// Determinism: generators built with the same seed produce identical
// records and request streams — the foundation of reproducible experiments.
func TestGeneratorsDeterministic(t *testing.T) {
	gA, gB := NewGoogle(100, 8, 42), NewGoogle(100, 8, 42)
	for i := range gA.Records() {
		a, b := gA.Records()[i], gB.Records()[i]
		if string(a.Key) != string(b.Key) || len(a.Vals) != len(b.Vals) {
			t.Fatalf("google record %d differs", i)
		}
		for j := range a.Vals {
			if len(a.Vals[j]) != len(b.Vals[j]) {
				t.Fatalf("google record %d val %d differs", i, j)
			}
		}
	}
	tA, tB := NewTwitter(100, 42), NewTwitter(100, 42)
	for i := range tA.Records() {
		if len(tA.Records()[i].Vals[0]) != len(tB.Records()[i].Vals[0]) {
			t.Fatalf("twitter record %d differs", i)
		}
	}
	cA, cB := NewCDN(50, 8000, 1<<20, 42), NewCDN(50, 8000, 1<<20, 42)
	for i := range cA.Records() {
		if cA.SegmentsOf(i) != cB.SegmentsOf(i) {
			t.Fatalf("cdn record %d differs", i)
		}
	}
	rA := rand.New(rand.NewPCG(9, 9))
	rB := rand.New(rand.NewPCG(9, 9))
	for i := 0; i < 100; i++ {
		qa, qb := tA.Next(rA), tB.Next(rB)
		if qa.Op != qb.Op || string(qa.Keys[0]) != string(qb.Keys[0]) {
			t.Fatalf("twitter request %d differs", i)
		}
	}
}
