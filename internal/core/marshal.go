package core

import "cornflakes/internal/wire"

// Marshal assembles the complete serialized object into a fresh byte slice:
// header region, then copied data, then zero-copy data. Its output is
// byte-identical to what a receiver sees after NIC gather. The
// scatter-gather send paths never call it — they write the header and copy
// region into a DMA buffer and let the NIC gather the zero-copy entries
// (§3.2.3) — but paths that need one contiguous body do: the RPC codec and
// the KV and Redis clients (through MarshalInto), the non-scatter-gather
// fallback, tests and tools.
func Marshal(obj Obj) []byte { return MarshalInto(nil, obj, 0) }

// MarshalInto serializes obj into dst at offset off, growing dst when its
// capacity is short, and returns dst[:off+ObjectLen]. The first off bytes
// are the caller's framing prefix: MarshalInto keeps what dst holds there
// (zeros past its length when it grows) and the caller fills them in.
// Every byte from off on is rewritten, so a reused dst yields exactly
// Marshal's bytes whatever it held before.
func MarshalInto(dst []byte, obj Obj, off int) []byte {
	l := obj.Layout()
	n := off + l.ObjectLen()
	if cap(dst) < n {
		grown := make([]byte, n)
		copy(grown, dst)
		dst = grown
	}
	dst = dst[:n]
	// WriteHeader writes every header byte (SendObject relies on the same
	// into recycled DMA buffers), so stale bytes in dst cannot survive.
	obj.WriteHeader(dst[off : off+l.HeaderLen])
	// Through the concrete type the walk's scratch stays on the stack; an
	// interface call would move it to the heap on every marshal.
	var scratch [8]CFPtr
	var ptrs []CFPtr
	if m, ok := obj.(*Message); ok {
		ptrs = m.AppendPtrs(scratch[:0])
	} else {
		ptrs = obj.AppendPtrs(nil)
	}
	cur := off + l.HeaderLen
	for _, p := range ptrs {
		if !p.IsZeroCopy() {
			cur += copy(dst[cur:], p.Bytes())
		}
	}
	for _, p := range ptrs {
		if p.IsZeroCopy() {
			cur += copy(dst[cur:], p.Bytes())
		}
	}
	return dst
}

// PeekID extracts field 0 of a serialized message when it is a present
// integer field — the request/response id convention every RPC schema in
// this repository follows. Load generators use it to match responses to
// outstanding requests without knowing the response schema.
func PeekID(data []byte) (uint64, bool) {
	if len(data) < 4 {
		return 0, false
	}
	words := int(wire.GetU32(data))
	if words <= 0 || words > 1024 {
		return 0, false
	}
	fixed := 4 + 4*words
	if len(data) < fixed+wire.EntrySize {
		return 0, false
	}
	if wire.GetU32(data[4:])&1 == 0 {
		return 0, false // field 0 absent
	}
	return wire.GetU64(data[fixed:]), true
}
