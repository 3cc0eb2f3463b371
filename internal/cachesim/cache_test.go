package cachesim

import (
	"testing"
	"testing/quick"
)

func smallConfig() Config {
	return Config{
		L1:            LevelConfig{Size: 1 << 10, Ways: 2, LatencyCy: 4},   // 8 sets
		L2:            LevelConfig{Size: 4 << 10, Ways: 4, LatencyCy: 14},  // 16 sets
		L3:            LevelConfig{Size: 16 << 10, Ways: 4, LatencyCy: 47}, // 64 sets
		DRAMLatencyCy: 280,
		StreamFillCy:  30,
	}
}

func TestColdMissThenHit(t *testing.T) {
	h := New(smallConfig())
	lvl, c := h.Access(0x1000)
	if lvl != HitDRAM || c != 280 {
		t.Errorf("cold access = (%v, %v), want (DRAM, 280)", lvl, c)
	}
	lvl, c = h.Access(0x1000)
	if lvl != HitL1 || c != 4 {
		t.Errorf("warm access = (%v, %v), want (L1, 4)", lvl, c)
	}
	// Another address in the same line also hits.
	lvl, _ = h.Access(0x1000 + 63)
	if lvl != HitL1 {
		t.Errorf("same-line access hit %v, want L1", lvl)
	}
	// Next line misses.
	lvl, _ = h.Access(0x1000 + 64)
	if lvl != HitDRAM {
		t.Errorf("next-line access hit %v, want DRAM", lvl)
	}
}

func TestSequentialStreamDiscount(t *testing.T) {
	h := New(smallConfig())
	_, c0 := h.Access(0x10000)
	if c0 != 280 {
		t.Fatalf("first miss cost %v, want 280", c0)
	}
	_, c1 := h.Access(0x10000 + 64)
	if c1 != 30 {
		t.Errorf("sequential miss cost %v, want streamed 30", c1)
	}
	// A random far miss pays full latency again.
	_, c2 := h.Access(0x90000)
	if c2 != 280 {
		t.Errorf("non-sequential miss cost %v, want 280", c2)
	}
}

func TestLRUEvictionWithinSet(t *testing.T) {
	cfg := smallConfig()
	h := New(cfg)
	// L1: 8 sets, 2 ways. Addresses mapping to set 0 of L1 are multiples of
	// 8*64 = 512.
	a, b, c := uint64(0), uint64(512), uint64(1024)
	h.Access(a)
	h.Access(b)
	// Touch a so b becomes LRU.
	h.Access(a)
	h.Access(c) // evicts b from L1
	if h.Contains(a) != HitL1 {
		t.Error("a should still be in L1")
	}
	if h.Contains(c) != HitL1 {
		t.Error("c should be in L1 after fill")
	}
	if h.Contains(b) == HitL1 {
		t.Error("b should have been evicted from L1")
	}
	// b should still be in an outer level (fills went everywhere).
	if h.Contains(b) == HitDRAM {
		t.Error("b should remain cached in L2/L3")
	}
}

func TestL2AndL3Hits(t *testing.T) {
	cfg := smallConfig()
	h := New(cfg)
	// Fill L1 set 0 beyond capacity so the earliest line falls back to L2.
	lines := []uint64{0, 512, 1024} // all L1-set-0
	for _, a := range lines {
		h.Access(a)
	}
	// Line 0 was evicted from L1 (2 ways), should hit L2 now.
	lvl, cost := h.Access(0)
	if lvl != HitL2 || cost != 14 {
		t.Errorf("access = (%v, %v), want (L2, 14)", lvl, cost)
	}
}

func TestAccessRangeCountsLines(t *testing.T) {
	h := New(smallConfig())
	cycles, dram := h.AccessRange(0x40000, 256) // 4 lines, cold
	if dram != 4 {
		t.Errorf("dram lines = %d, want 4", dram)
	}
	// First line full latency + 3 streamed.
	want := 280.0 + 3*30
	if cycles != want {
		t.Errorf("cycles = %v, want %v", cycles, want)
	}
	// Warm re-read: all L1.
	cycles, dram = h.AccessRange(0x40000, 256)
	if dram != 0 || cycles != 4*4 {
		t.Errorf("warm range = (%v cycles, %d dram), want (16, 0)", cycles, dram)
	}
}

func TestAccessRangeUnalignedSpansExtraLine(t *testing.T) {
	h := New(smallConfig())
	// 64 bytes starting 32 bytes into a line touches two lines.
	_, dram := h.AccessRange(0x50020, 64)
	if dram != 2 {
		t.Errorf("dram lines = %d, want 2 for unaligned 64B", dram)
	}
}

func TestAccessRangeZeroAndNegative(t *testing.T) {
	h := New(smallConfig())
	if c, d := h.AccessRange(0x100, 0); c != 0 || d != 0 {
		t.Error("zero-length range should be free")
	}
	if c, d := h.AccessRange(0x100, -5); c != 0 || d != 0 {
		t.Error("negative range should be free")
	}
}

func TestWorkingSetLargerThanL3Misses(t *testing.T) {
	cfg := smallConfig()
	h := New(cfg)
	// Stream 5x L3 of data twice; second pass should still miss mostly
	// (capacity evictions), which is the §2.4 working-set effect.
	span := 5 * cfg.L3.Size
	h.AccessRange(0, span)
	h.Flush() // reset stream detector but also caches; instead measure fresh
	h = New(cfg)
	h.AccessRange(0, span)
	before := h.DRAMAccesses
	h.AccessRange(0, span)
	missesSecondPass := h.DRAMAccesses - before
	lines := uint64(span / LineSize)
	if missesSecondPass < lines*9/10 {
		t.Errorf("second pass over 5xL3 missed only %d of %d lines; want ~all", missesSecondPass, lines)
	}
}

func TestWorkingSetSmallerThanL1Hits(t *testing.T) {
	h := New(smallConfig())
	h.AccessRange(0, 512) // fits in L1 (1 KiB)
	before := h.DRAMAccesses
	h.AccessRange(0, 512)
	if h.DRAMAccesses != before {
		t.Error("resident working set should not miss to DRAM")
	}
}

func TestSharedL3(t *testing.T) {
	cfg := smallConfig()
	c0 := New(cfg)
	c1 := NewShared(cfg, c0)
	c0.Access(0x7000)
	// Core 1 misses its private L1/L2 but hits the shared L3.
	lvl, cost := c1.Access(0x7000)
	if lvl != HitL3 || cost != 47 {
		t.Errorf("cross-core access = (%v, %v), want (L3, 47)", lvl, cost)
	}
}

func TestFlushOwnership(t *testing.T) {
	cfg := smallConfig()
	c0 := New(cfg)
	c1 := NewShared(cfg, c0)
	c0.Access(0x8000)
	c1.Flush() // must NOT flush the shared L3 it doesn't own
	if c0.Contains(0x8000) == HitDRAM {
		t.Error("non-owner Flush cleared the shared L3")
	}
	c0.Flush()
	if c0.Contains(0x8000) != HitDRAM {
		t.Error("owner Flush did not clear L3")
	}
}

func TestStats(t *testing.T) {
	h := New(smallConfig())
	h.Access(0x100)
	h.Access(0x100)
	s := h.Stats()
	if s[0].Misses != 1 || s[0].Hits != 1 {
		t.Errorf("L1 stats = %+v, want 1 hit 1 miss", s[0])
	}
}

func TestHitLevelString(t *testing.T) {
	names := map[HitLevel]string{HitL1: "L1", HitL2: "L2", HitL3: "L3", HitDRAM: "DRAM"}
	for lvl, want := range names {
		if lvl.String() != want {
			t.Errorf("%d.String() = %q, want %q", lvl, lvl.String(), want)
		}
	}
}

func TestInvalidConfigPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("zero-way config did not panic")
		}
	}()
	New(Config{L1: LevelConfig{Size: 1024, Ways: 0}})
}

// TestInvalidGeometryPanics pins that a level whose size is not a positive
// multiple of Ways×LineSize, or whose associativity exceeds what the
// per-set fill count holds, fails at construction instead of silently
// becoming some other geometry.
func TestInvalidGeometryPanics(t *testing.T) {
	for _, tc := range []struct {
		name string
		lc   LevelConfig
	}{
		{"short of one set", LevelConfig{Size: 64, Ways: 2}},
		{"not a set multiple", LevelConfig{Size: 3 * 64, Ways: 2}},
		{"not line aligned", LevelConfig{Size: 1000, Ways: 1}},
		{"negative size", LevelConfig{Size: -1024, Ways: 2}},
		{"negative ways", LevelConfig{Size: 1024, Ways: -2}},
		{"too many ways", LevelConfig{Size: 256 * 64, Ways: 256}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Errorf("level %+v did not panic", tc.lc)
				}
			}()
			cfg := smallConfig()
			cfg.L2 = tc.lc
			New(cfg)
		})
	}
	// The widest and narrowest legal levels still build.
	cfg := smallConfig()
	cfg.L2 = LevelConfig{Size: maxWays * LineSize, Ways: maxWays}
	cfg.L3 = LevelConfig{Size: LineSize, Ways: 1}
	h := New(cfg)
	for a := uint64(0); a < 2*maxWays*LineSize; a += LineSize {
		h.Access(a)
	}
	if got := h.Contains(0); got != HitDRAM {
		t.Errorf("line 0 after %d-line sweep of a %d-way set: %v, want DRAM", 2*maxWays, maxWays, got)
	}
}

// Property: an address accessed twice in a row always hits L1 the second
// time, for any address.
func TestImmediateReuseHitsL1(t *testing.T) {
	h := New(smallConfig())
	f := func(addr uint64) bool {
		addr %= 1 << 40
		h.Access(addr)
		lvl, _ := h.Access(addr)
		return lvl == HitL1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Contains never reports a faster level than where an Access
// actually hits (Contains is conservative and LRU-neutral).
func TestContainsConsistentWithAccess(t *testing.T) {
	h := New(smallConfig())
	f := func(addrs []uint32) bool {
		for _, a := range addrs {
			addr := uint64(a)
			want := h.Contains(addr)
			got, _ := h.Access(addr)
			if got != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestDefaultConfigSane(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.DRAMLatencyCy != 280 {
		t.Errorf("DRAM latency = %v cycles, want 280 (100ns at 2.8GHz)", cfg.DRAMLatencyCy)
	}
	h := New(cfg)
	if h.L3Size() != 16<<20 {
		t.Errorf("L3 size = %d, want 16 MiB", h.L3Size())
	}
}
