package core

import (
	"bytes"
	"math/rand/v2"
	"testing"
)

// buildRandomTree builds a random message over a nested schema, returning
// the message; depth bounds recursion.
func buildRandomTree(c *Ctx, inner, outer *Schema, r *rand.Rand, depth int) *Message {
	m := NewMessage(outer, c)
	if r.IntN(2) == 0 {
		m.SetInt(0, r.Uint64())
	}
	for i := 0; i < r.IntN(4); i++ {
		n := r.IntN(1200) + 1
		v := c.Alloc.Alloc(n)
		for j := 0; j < n; j += 63 {
			v.Bytes()[j] = byte(r.Uint32())
		}
		m.AppendBytes(1, c.NewCFPtr(v.Bytes()))
	}
	if depth > 0 {
		for i := 0; i < r.IntN(3); i++ {
			sub := NewMessage(inner, c)
			sub.SetInt(0, r.Uint64())
			if r.IntN(2) == 0 {
				sub.SetBytes(1, c.NewCFPtr([]byte("nested-data")))
			}
			m.AppendNested(2, sub)
		}
	}
	return m
}

func nestedTestSchemas() (*Schema, *Schema) {
	inner := &Schema{Name: "Inner", Fields: []Field{
		{Name: "x", Kind: KindInt},
		{Name: "d", Kind: KindBytes},
	}}
	outer := &Schema{Name: "Outer", Fields: []Field{
		{Name: "id", Kind: KindInt},
		{Name: "blobs", Kind: KindBytesList},
		{Name: "subs", Kind: KindNestedList, Nested: inner},
	}}
	return inner, outer
}

// Property: Layout().ObjectLen() always equals len(Marshal()) — the
// serialize-and-send path sizes DMA buffers from the layout, so any
// mismatch would corrupt frames.
func TestObjectLenEqualsMarshalLen(t *testing.T) {
	inner, outer := nestedTestSchemas()
	r := rand.New(rand.NewPCG(11, 12))
	for i := 0; i < 60; i++ {
		c := newTestCtx()
		m := buildRandomTree(c, inner, outer, r, 1)
		if got, want := len(Marshal(m)), m.Layout().ObjectLen(); got != want {
			t.Fatalf("iteration %d: Marshal len %d != ObjectLen %d", i, got, want)
		}
	}
}

// Property: the layout's copy/ZC entry counts match what the pointer walk
// (AppendPtrs) actually yields, in every threshold configuration.
func TestLayoutCountsMatchIterators(t *testing.T) {
	inner, outer := nestedTestSchemas()
	r := rand.New(rand.NewPCG(13, 14))
	for _, th := range []int{ThresholdAllZeroCopy, DefaultThreshold, ThresholdAllCopy} {
		for i := 0; i < 30; i++ {
			c := newTestCtx()
			c.Threshold = th
			m := buildRandomTree(c, inner, outer, r, 1)
			l := m.Layout()
			nCopy, nZC, copyBytes, zcBytes := 0, 0, 0, 0
			for _, p := range m.AppendPtrs(nil) {
				if p.IsZeroCopy() {
					nZC++
					zcBytes += p.ZCBuf().Len()
				} else {
					nCopy++
					copyBytes += p.Len()
				}
			}
			if nCopy != l.NumCopy || nZC != l.NumZC {
				t.Fatalf("th=%d: counts (%d,%d) vs layout (%d,%d)", th, nCopy, nZC, l.NumCopy, l.NumZC)
			}
			if copyBytes != l.CopyLen || zcBytes != l.ZCLen {
				t.Fatalf("th=%d: bytes (%d,%d) vs layout (%d,%d)", th, copyBytes, zcBytes, l.CopyLen, l.ZCLen)
			}
		}
	}
}

func TestDeepNesting(t *testing.T) {
	c := newTestCtx()
	s := &Schema{Name: "Tree"}
	s.Fields = []Field{
		{Name: "v", Kind: KindInt},
		{Name: "kid", Kind: KindNested, Nested: s},
	}
	// Build a 12-deep chain.
	leaf := NewMessage(s, c)
	leaf.SetInt(0, 0)
	cur := leaf
	for i := 1; i <= 12; i++ {
		parent := NewMessage(s, c)
		parent.SetInt(0, uint64(i))
		parent.SetNested(1, cur)
		cur = parent
	}
	got := roundTrip(t, c, cur)
	for i := 12; i >= 0; i-- {
		if got.GetInt(0) != uint64(i) {
			t.Fatalf("depth %d: value %d", i, got.GetInt(0))
		}
		if i > 0 {
			got = got.GetNested(1)
		}
	}
}

func TestDeserializeBytesClientPath(t *testing.T) {
	c := newTestCtx()
	m := NewMessage(kvSchema(), c)
	m.SetInt(0, 1234)
	m.AppendBytes(2, c.NewCFPtr(bytes.Repeat([]byte{9}, 800)))
	data := Marshal(m)
	got, err := c.DeserializeBytes(kvSchema(), data)
	if err != nil {
		t.Fatal(err)
	}
	if got.GetInt(0) != 1234 || len(got.GetBytesElem(2, 0)) != 800 {
		t.Error("client-path decode wrong")
	}
	got.Release() // no buffer reference: must be a no-op
}

func TestPeekID(t *testing.T) {
	c := newTestCtx()
	m := NewMessage(kvSchema(), c)
	m.SetInt(0, 0xABCDEF)
	m.AppendBytes(1, c.NewCFPtr([]byte("k")))
	data := Marshal(m)
	id, ok := PeekID(data)
	if !ok || id != 0xABCDEF {
		t.Errorf("PeekID = (%x, %v)", id, ok)
	}
	// Absent id field.
	m2 := NewMessage(kvSchema(), c)
	m2.AppendBytes(1, c.NewCFPtr([]byte("k")))
	if _, ok := PeekID(Marshal(m2)); ok {
		t.Error("PeekID succeeded with absent field 0")
	}
	// Garbage inputs must not panic.
	for _, bad := range [][]byte{nil, {1}, {0, 0, 0, 0}, bytes.Repeat([]byte{0xFF}, 16)} {
		PeekID(bad)
	}
}

func TestMessageResetReuse(t *testing.T) {
	c := newTestCtx()
	m := NewMessage(kvSchema(), c)
	m.SetInt(0, 1)
	m.AppendBytes(1, c.NewCFPtr([]byte("first")))
	first := Marshal(m)
	m.Reset()
	m.SetInt(0, 2)
	m.AppendBytes(2, c.NewCFPtr([]byte("second-use")))
	second := Marshal(m)
	if bytes.Equal(first, second) {
		t.Error("reset message produced identical bytes")
	}
	got, err := c.DeserializeBytes(kvSchema(), second)
	if err != nil {
		t.Fatal(err)
	}
	if got.GetInt(0) != 2 || got.ListLen(1) != 0 || got.ListLen(2) != 1 {
		t.Error("stale fields survived Reset")
	}
}

func TestMarshalHugeObject(t *testing.T) {
	c := newTestCtx()
	s := kvSchema()
	m := NewMessage(s, c)
	// 1 MB across 128 zero-copy fields: far beyond any frame, exercised by
	// Marshal and the Segmenter.
	for i := 0; i < 128; i++ {
		v := c.Alloc.Alloc(8192)
		v.Bytes()[0] = byte(i)
		m.AppendBytes(2, c.NewCFPtr(v.Bytes()))
	}
	data := Marshal(m)
	if len(data) != m.Layout().ObjectLen() {
		t.Fatal("length mismatch on huge object")
	}
	got, err := c.DeserializeBytes(s, data)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 128; i++ {
		if got.GetBytesElem(2, i)[0] != byte(i) {
			t.Fatalf("element %d corrupted", i)
		}
	}
}

// Property: MarshalInto over a reused, 0xAA-filled, over-long dst writes
// exactly Marshal's bytes after the prefix and leaves the prefix alone —
// stale bytes from an earlier frame must never leak into a rebuilt one
// (receivers, and the simulated addresses hashed from frame contents,
// would see them).
func TestMarshalIntoReusedBufferMatchesMarshal(t *testing.T) {
	inner, outer := nestedTestSchemas()
	r := rand.New(rand.NewPCG(15, 16))
	for _, th := range []int{ThresholdAllZeroCopy, DefaultThreshold, ThresholdAllCopy} {
		for i := 0; i < 30; i++ {
			c := newTestCtx()
			c.Threshold = th
			m := buildRandomTree(c, inner, outer, r, 1)
			want := Marshal(m)
			for _, off := range []int{0, 1, 19} {
				dst := bytes.Repeat([]byte{0xAA}, off+len(want)+64)
				got := MarshalInto(dst, m, off)
				if len(got) != off+len(want) {
					t.Fatalf("th=%d off=%d: len %d, want %d", th, off, len(got), off+len(want))
				}
				if !bytes.Equal(got[off:], want) {
					t.Fatalf("th=%d off=%d: reused buffer differs from Marshal", th, off)
				}
				if !bytes.Equal(got[:off], dst[:off]) || &got[0] != &dst[0] {
					t.Fatalf("th=%d off=%d: prefix clobbered or buffer not reused", th, off)
				}
				// A short dst grows, keeping the prefix.
				short := bytes.Repeat([]byte{0xAA}, off)
				grown := MarshalInto(short, m, off)
				if !bytes.Equal(grown[:off], short) || !bytes.Equal(grown[off:], want) {
					t.Fatalf("th=%d off=%d: grown buffer wrong", th, off)
				}
			}
		}
	}
}
