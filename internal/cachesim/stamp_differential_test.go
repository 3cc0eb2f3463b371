package cachesim

import (
	"fmt"
	"math/rand"
	"testing"

	"cornflakes/internal/mem"
)

// This file keeps the retired stamp-LRU model — flat tags[] and stamps[]
// arrays indexed by set×way, a per-level monotone clock, and stamp 0 as the
// empty-way sentinel, exactly as cache.go had it before the flat positional
// rewrite — as a second oracle. The differential test below drives it and
// the production model with one randomized operation stream (accesses,
// ranges, probes, flushes and new shared-L3 cores) over addresses from every
// simulated memory window, in the manner of an acceptance test that checks
// a cache against an ideal reference, and requires every observable result
// to match.

type stampLevel struct {
	cfg          LevelConfig
	numSets      int
	ways         int
	pow2         bool
	tags         []uint64
	stamps       []uint64
	clock        uint64
	hits, misses uint64
}

func newStampLevel(cfg LevelConfig) *stampLevel {
	numSets := cfg.Size / (cfg.Ways * LineSize)
	n := numSets * cfg.Ways
	return &stampLevel{
		cfg:     cfg,
		numSets: numSets,
		ways:    cfg.Ways,
		pow2:    numSets&(numSets-1) == 0,
		tags:    make([]uint64, n),
		stamps:  make([]uint64, n),
	}
}

func (l *stampLevel) setIndex(line uint64) int {
	if l.pow2 {
		return int((line / LineSize) & uint64(l.numSets-1))
	}
	return int((line / LineSize) % uint64(l.numSets))
}

// lookup restamps a hit way; a miss leaves the set alone.
func (l *stampLevel) lookup(line uint64) bool {
	base := l.setIndex(line) * l.ways
	tags := l.tags[base : base+l.ways]
	stamps := l.stamps[base : base+l.ways : base+l.ways]
	for i, tag := range tags {
		if tag == line && stamps[i] != 0 {
			l.clock++
			stamps[i] = l.clock
			l.hits++
			return true
		}
	}
	l.misses++
	return false
}

// fill takes the first empty way, else evicts the minimum-stamp way.
func (l *stampLevel) fill(line uint64) {
	base := l.setIndex(line) * l.ways
	stamps := l.stamps[base : base+l.ways : base+l.ways]
	min := 0
	for i, s := range stamps {
		if s == 0 {
			l.clock++
			l.tags[base+i] = line
			stamps[i] = l.clock
			return
		}
		if s < stamps[min] {
			min = i
		}
	}
	l.clock++
	l.tags[base+min] = line
	stamps[min] = l.clock
}

func (l *stampLevel) contains(line uint64) bool {
	base := l.setIndex(line) * l.ways
	for i, tag := range l.tags[base : base+l.ways] {
		if tag == line && l.stamps[base+i] != 0 {
			return true
		}
	}
	return false
}

func (l *stampLevel) flushAll() { clear(l.stamps) }

type stampHierarchy struct {
	cfg          Config
	l1, l2, l3   *stampLevel
	ownsL3       bool
	streamNext   uint64
	streamValid  bool
	DRAMAccesses uint64
}

func newStamp(cfg Config) *stampHierarchy {
	return &stampHierarchy{cfg: cfg, l1: newStampLevel(cfg.L1), l2: newStampLevel(cfg.L2), l3: newStampLevel(cfg.L3), ownsL3: true}
}

func newStampShared(cfg Config, base *stampHierarchy) *stampHierarchy {
	return &stampHierarchy{cfg: cfg, l1: newStampLevel(cfg.L1), l2: newStampLevel(cfg.L2), l3: base.l3}
}

func (h *stampHierarchy) Access(addr uint64) (HitLevel, float64) {
	line := addr &^ uint64(LineSize-1)
	if h.l1.lookup(line) {
		return HitL1, h.cfg.L1.LatencyCy
	}
	return h.missBelowL1(line)
}

func (h *stampHierarchy) missBelowL1(line uint64) (HitLevel, float64) {
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
	if h.streamValid && line == h.streamNext {
		cost = h.cfg.StreamFillCy
	}
	h.streamNext = line + LineSize
	h.streamValid = true
	return HitDRAM, cost
}

// AccessRange is the stamp model's inline L1 range walk.
func (h *stampHierarchy) AccessRange(addr uint64, n int) (cycles float64, dramLines int) {
	if n <= 0 {
		return 0, 0
	}
	line := addr &^ uint64(LineSize-1)
	nLines := int((addr+uint64(n)-1)/LineSize-line/LineSize) + 1
	l1 := h.l1
	idx := l1.setIndex(line)
	for k := 0; k < nLines; k++ {
		base := idx * l1.ways
		stamps := l1.stamps[base : base+l1.ways : base+l1.ways]
		hit := false
		for i, tag := range l1.tags[base : base+l1.ways] {
			if tag == line && stamps[i] != 0 {
				l1.clock++
				stamps[i] = l1.clock
				hit = true
				break
			}
		}
		if hit {
			l1.hits++
			cycles += h.cfg.L1.LatencyCy
		} else {
			l1.misses++
			lvl, c := h.missBelowL1(line)
			cycles += c
			if lvl == HitDRAM {
				dramLines++
			}
		}
		line += LineSize
		idx++
		if idx == l1.numSets {
			idx = 0
		}
	}
	return cycles, dramLines
}

func (h *stampHierarchy) Contains(addr uint64) HitLevel {
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

func (h *stampHierarchy) Stats() [3]LevelStats {
	return [3]LevelStats{{h.l1.hits, h.l1.misses}, {h.l2.hits, h.l2.misses}, {h.l3.hits, h.l3.misses}}
}

func (h *stampHierarchy) Flush() {
	h.l1.flushAll()
	h.l2.flushAll()
	if h.ownsL3 {
		h.l3.flushAll()
	}
	h.streamValid = false
}

// windowUniverse draws line addresses from all four simulated memory
// windows, up to the top of the 48-bit space: half cluster in a few MiB
// above each window's base (so ranges and sets see reuse), half land
// anywhere in the window's first 2^44 bytes.
func windowUniverse(rng *rand.Rand, n int) []uint64 {
	windows := [...]uint64{mem.SimDataBase, mem.SimUnpinnedBase, mem.SimScratchBase, mem.SimMetaBase}
	u := make([]uint64, n)
	for i := range u {
		w := windows[rng.Intn(len(windows))]
		var off uint64
		if rng.Intn(2) == 0 {
			off = uint64(rng.Intn(1<<16)) * LineSize
		} else {
			off = uint64(rng.Int63n(1<<44)) &^ (LineSize - 1)
		}
		u[i] = w + off
	}
	return u
}

// TestStampModelDifferential drives the flat positional model and the
// retired stamp model with one random operation stream and compares hit
// level, cost, DRAM lines, Contains, Stats and DRAMAccesses after every
// operation, and final residency of every universe line on every core.
func TestStampModelDifferential(t *testing.T) {
	small := equivalenceConfig()
	def := DefaultConfig()
	def.L2.Size = 64 << 10  // 128 sets
	def.L3.Size = 256 << 10 // 256 sets, so evictions happen at every level
	for _, tc := range []struct {
		name     string
		cfg      Config
		universe int
		seeds    int64
	}{
		{"small", small, 768, 6},
		{"default-shape", def, 8192, 3},
	} {
		for seed := int64(1); seed <= tc.seeds; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", tc.name, seed), func(t *testing.T) {
				differential(t, tc.cfg, rand.New(rand.NewSource(seed)), tc.universe)
			})
		}
	}
}

func differential(t *testing.T, cfg Config, rng *rand.Rand, universeSize int) {
	const maxCores = 4
	universe := windowUniverse(rng, universeSize)
	got := []*Hierarchy{New(cfg)}
	want := []*stampHierarchy{newStamp(cfg)}
	l1Bytes := cfg.L1.Size / cfg.L1.Ways
	for step := 0; step < 20000; step++ {
		c := rng.Intn(len(got))
		g, w := got[c], want[c]
		addr := universe[rng.Intn(len(universe))]
		var op string
		switch k := rng.Intn(100); {
		case k < 45:
			op = fmt.Sprintf("Access(%#x)", addr)
			gl, gc := g.Access(addr)
			wl, wc := w.Access(addr)
			if gl != wl || gc != wc {
				t.Fatalf("step %d core %d %s: got (%v, %v), stamp model (%v, %v)", step, c, op, gl, gc, wl, wc)
			}
		case k < 80:
			addr += uint64(rng.Intn(LineSize))
			var n int
			if rng.Intn(4) == 0 {
				n = l1Bytes + rng.Intn(l1Bytes) // spans every L1 set and wraps
			} else {
				n = rng.Intn(8 * LineSize) // includes empty ranges
			}
			op = fmt.Sprintf("AccessRange(%#x, %d)", addr, n)
			gc, gd := g.AccessRange(addr, n)
			wc, wd := w.AccessRange(addr, n)
			if gc != wc || gd != wd {
				t.Fatalf("step %d core %d %s: got (%v, %d), stamp model (%v, %d)", step, c, op, gc, gd, wc, wd)
			}
		case k < 97:
			op = fmt.Sprintf("Contains(%#x)", addr)
			if gl, wl := g.Contains(addr), w.Contains(addr); gl != wl {
				t.Fatalf("step %d core %d %s: got %v, stamp model %v", step, c, op, gl, wl)
			}
		case k < 99:
			op = "Flush"
			g.Flush()
			w.Flush()
		default:
			if len(got) == maxCores {
				continue
			}
			op = "NewShared"
			got = append(got, NewShared(cfg, got[0]))
			want = append(want, newStampShared(cfg, want[0]))
		}
		if g.Stats() != w.Stats() || g.DRAMAccesses != w.DRAMAccesses {
			t.Fatalf("step %d core %d after %s: stats %v/%d, stamp model %v/%d",
				step, c, op, g.Stats(), g.DRAMAccesses, w.Stats(), w.DRAMAccesses)
		}
	}
	for c := range got {
		for _, addr := range universe {
			if g, w := got[c].Contains(addr), want[c].Contains(addr); g != w {
				t.Fatalf("core %d final residency of %#x: got %v, stamp model %v", c, addr, g, w)
			}
		}
	}
}
