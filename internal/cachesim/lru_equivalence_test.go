package cachesim

import (
	"math/rand"
	"testing"
)

// This file retains the original positional LRU model — per-set
// MRU-ordered tag slices, each with its own backing array — as a reference
// oracle. It came before the stamp-LRU model (kept as the second oracle in
// stamp_differential_test.go), which the flat positional model in cache.go
// replaced. The property tests below drive cache.go and this reference with
// identical randomized access streams and require hit levels, costs, DRAM
// counts, per-level stats, and final residency to match exactly.
//
// Why equivalence holds: cache.go keeps the same MRU-first order per set,
// only laid out inside one flat array with a per-set fill count instead of
// a slice per set; empty ways are consumed before any eviction, matching
// the reference model's grow-until-full inserts.

type refLevel struct {
	cfg          LevelConfig
	sets         [][]uint64
	numSets      int
	hits, misses uint64
}

func newRefLevel(cfg LevelConfig) *refLevel {
	numSets := cfg.Size / (cfg.Ways * LineSize)
	if numSets <= 0 {
		numSets = 1
	}
	return &refLevel{cfg: cfg, sets: make([][]uint64, numSets), numSets: numSets}
}

func (l *refLevel) lookup(line uint64) bool {
	set := l.sets[l.setIndex(line)]
	for i, tag := range set {
		if tag == line {
			copy(set[1:i+1], set[:i])
			set[0] = line
			l.hits++
			return true
		}
	}
	l.misses++
	return false
}

func (l *refLevel) fill(line uint64) (uint64, bool) {
	idx := l.setIndex(line)
	set := l.sets[idx]
	if len(set) < l.cfg.Ways {
		if cap(set) < l.cfg.Ways {
			grown := make([]uint64, len(set), l.cfg.Ways)
			copy(grown, set)
			set = grown
		}
		set = set[:len(set)+1]
		copy(set[1:], set)
		set[0] = line
		l.sets[idx] = set
		return 0, false
	}
	victim := set[len(set)-1]
	copy(set[1:], set[:len(set)-1])
	set[0] = line
	return victim, true
}

func (l *refLevel) setIndex(line uint64) int {
	return int((line / LineSize) % uint64(l.numSets))
}

func (l *refLevel) contains(line uint64) bool {
	for _, tag := range l.sets[l.setIndex(line)] {
		if tag == line {
			return true
		}
	}
	return false
}

func (l *refLevel) flushAll() {
	for i := range l.sets {
		l.sets[i] = l.sets[i][:0]
	}
}

type refHierarchy struct {
	cfg          Config
	l1, l2, l3   *refLevel
	ownsL3       bool
	lastLine     uint64
	DRAMAccesses uint64
}

func newRef(cfg Config) *refHierarchy {
	return &refHierarchy{cfg: cfg, l1: newRefLevel(cfg.L1), l2: newRefLevel(cfg.L2), l3: newRefLevel(cfg.L3), ownsL3: true}
}

func newRefShared(cfg Config, base *refHierarchy) *refHierarchy {
	return &refHierarchy{cfg: cfg, l1: newRefLevel(cfg.L1), l2: newRefLevel(cfg.L2), l3: base.l3}
}

func (h *refHierarchy) Access(addr uint64) (HitLevel, float64) {
	line := addr &^ uint64(LineSize-1)
	if h.l1.lookup(line) {
		return HitL1, h.cfg.L1.LatencyCy
	}
	if h.l2.lookup(line) {
		h.l1.fill(line)
		return HitL2, h.cfg.L2.LatencyCy
	}
	if h.l3.lookup(line) {
		h.l2.fill(line)
		h.l1.fill(line)
		return HitL3, h.cfg.L3.LatencyCy
	}
	h.DRAMAccesses++
	h.l3.fill(line)
	h.l2.fill(line)
	h.l1.fill(line)
	cost := h.cfg.DRAMLatencyCy
	if h.lastLine != 0 && line == h.lastLine+LineSize {
		cost = h.cfg.StreamFillCy
	}
	h.lastLine = line
	return HitDRAM, cost
}

func (h *refHierarchy) AccessRange(addr uint64, n int) (cycles float64, dramLines int) {
	if n <= 0 {
		return 0, 0
	}
	first := addr &^ uint64(LineSize-1)
	last := (addr + uint64(n) - 1) &^ uint64(LineSize-1)
	for line := first; ; line += LineSize {
		lvl, c := h.Access(line)
		cycles += c
		if lvl == HitDRAM {
			dramLines++
		}
		if line == last {
			break
		}
	}
	return cycles, dramLines
}

func (h *refHierarchy) Contains(addr uint64) HitLevel {
	line := addr &^ uint64(LineSize-1)
	switch {
	case h.l1.contains(line):
		return HitL1
	case h.l2.contains(line):
		return HitL2
	case h.l3.contains(line):
		return HitL3
	default:
		return HitDRAM
	}
}

func (h *refHierarchy) Stats() [3]LevelStats {
	return [3]LevelStats{{h.l1.hits, h.l1.misses}, {h.l2.hits, h.l2.misses}, {h.l3.hits, h.l3.misses}}
}

func (h *refHierarchy) Flush() {
	h.l1.flushAll()
	h.l2.flushAll()
	if h.ownsL3 {
		h.l3.flushAll()
	}
	h.lastLine = 0
}

// equivalenceConfig is small enough that random streams force constant
// evictions at every level while still exercising three distinct
// geometries (different set counts and associativities, including a
// non-power-of-two set count in L2).
func equivalenceConfig() Config {
	return Config{
		L1:            LevelConfig{Size: 1 << 10, Ways: 2, LatencyCy: 4},   // 8 sets
		L2:            LevelConfig{Size: 6 << 10, Ways: 4, LatencyCy: 14},  // 24 sets (non-pow2)
		L3:            LevelConfig{Size: 32 << 10, Ways: 8, LatencyCy: 47}, // 64 sets
		DRAMLatencyCy: 280,
		StreamFillCy:  12,
	}
}

// drive applies one randomized operation to both models and fails on any
// divergence in hit level, cost, or DRAM line count.
func drive(t *testing.T, rng *rand.Rand, h *Hierarchy, r *refHierarchy, universe []uint64) {
	t.Helper()
	addr := universe[rng.Intn(len(universe))]
	switch op := rng.Intn(10); {
	case op < 6: // single access
		gl, gc := h.Access(addr)
		wl, wc := r.Access(addr)
		if gl != wl || gc != wc {
			t.Fatalf("Access(%#x): got (%v, %v), ref (%v, %v)", addr, gl, gc, wl, wc)
		}
	case op < 9: // range access, unaligned start and length
		n := 1 + rng.Intn(6*LineSize)
		off := uint64(rng.Intn(LineSize))
		gc, gd := h.AccessRange(addr+off, n)
		wc, wd := r.AccessRange(addr+off, n)
		if gc != wc || gd != wd {
			t.Fatalf("AccessRange(%#x, %d): got (%v, %d), ref (%v, %d)", addr+off, n, gc, gd, wc, wd)
		}
	default: // flush
		h.Flush()
		r.Flush()
	}
}

func checkSame(t *testing.T, tag string, h *Hierarchy, r *refHierarchy, universe []uint64) {
	t.Helper()
	if h.Stats() != r.Stats() {
		t.Fatalf("%s: stats diverged: got %v, ref %v", tag, h.Stats(), r.Stats())
	}
	if h.DRAMAccesses != r.DRAMAccesses {
		t.Fatalf("%s: DRAM accesses diverged: got %d, ref %d", tag, h.DRAMAccesses, r.DRAMAccesses)
	}
	// Final residency: every line in the universe must be held at the same
	// level in both models — this is where a wrong eviction choice shows up
	// even if costs happened to agree.
	for _, addr := range universe {
		if g, w := h.Contains(addr), r.Contains(addr); g != w {
			t.Fatalf("%s: Contains(%#x) diverged: got %v, ref %v", tag, addr, g, w)
		}
	}
}

// TestStampLRUEquivalence is the property test for the stamp-LRU rewrite:
// randomized address streams over a private hierarchy must produce exactly
// the hit levels, costs, evictions (observed via final residency), and
// stats of the positional reference model.
func TestStampLRUEquivalence(t *testing.T) {
	cfg := equivalenceConfig()
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		// Addresses start one line up so the reference model's line-0
		// stream sentinel (a separately-fixed bug, see
		// TestStreamDetectionLineZero) never engages; all simulated
		// addresses handed out by internal/mem are far higher anyway.
		universe := make([]uint64, 512)
		for i := range universe {
			universe[i] = uint64(1+rng.Intn(4096)) * LineSize
		}
		h, r := New(cfg), newRef(cfg)
		for step := 0; step < 20000; step++ {
			drive(t, rng, h, r, universe)
		}
		checkSame(t, "private", h, r, universe)
	}
}

// TestStampLRUEquivalenceShared runs the same property over a shared-L3
// pair built with NewShared: two hierarchies interleave accesses into one
// L3, which exercises cross-hierarchy stamp ordering in the shared level.
func TestStampLRUEquivalenceShared(t *testing.T) {
	cfg := equivalenceConfig()
	for seed := int64(100); seed <= 104; seed++ {
		rng := rand.New(rand.NewSource(seed))
		universe := make([]uint64, 512)
		for i := range universe {
			universe[i] = uint64(1+rng.Intn(4096)) * LineSize
		}
		base, refBase := New(cfg), newRef(cfg)
		shared, refShared := NewShared(cfg, base), newRefShared(cfg, refBase)
		for step := 0; step < 20000; step++ {
			if rng.Intn(2) == 0 {
				drive(t, rng, base, refBase, universe)
			} else {
				drive(t, rng, shared, refShared, universe)
			}
		}
		checkSame(t, "base", base, refBase, universe)
		checkSame(t, "shared", shared, refShared, universe)
	}
}

// TestStampLRUEquivalenceDefaultGeometry spot-checks the production
// geometry (DefaultConfig, 8/8/16-way with pow2 set counts) with a tighter
// step budget: the tiny-config tests above stress eviction logic, this one
// stresses the set-index mask path used in real runs.
func TestStampLRUEquivalenceDefaultGeometry(t *testing.T) {
	cfg := DefaultConfig()
	cfg.L3.Size = 256 << 10 // shrink so evictions actually happen in-test
	rng := rand.New(rand.NewSource(7))
	universe := make([]uint64, 2048)
	for i := range universe {
		universe[i] = uint64(1+rng.Intn(1<<16)) * LineSize
	}
	h, r := New(cfg), newRef(cfg)
	for step := 0; step < 30000; step++ {
		drive(t, rng, h, r, universe)
	}
	checkSame(t, "default", h, r, universe)
}
