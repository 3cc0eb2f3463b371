package cachesim

import "testing"

// TestAccessRangeAllocFree pins 0 allocs on the batched range walk, hit and
// miss alike: each level's tag array and fill counts are sized at
// construction, so steady-state lookups, fills, and evictions must never
// touch the heap.
func TestAccessRangeAllocFree(t *testing.T) {
	h := New(DefaultConfig())
	const base = uint64(1) << 40
	touch := func() {
		// An L1-resident run (fast path) plus a strided walk wide enough to
		// evict through L3 (miss path).
		h.AccessRange(base, 4096)
		for a := base; a < base+(64<<20); a += 64 << 10 {
			h.AccessRange(a, 128)
		}
	}
	touch() // materialize every set on the walk
	allocs := testing.AllocsPerRun(10, touch)
	if allocs != 0 {
		t.Fatalf("warm AccessRange allocated %.2f allocs (want 0)", allocs)
	}
}
