// Package cachesim models a set-associative, write-allocate CPU cache
// hierarchy with LRU replacement.
//
// Cornflakes' central observation (§2.3–§2.4 of the paper) is that the
// copy-vs-scatter-gather tradeoff is governed by cache misses: each
// zero-copy send touches bookkeeping metadata (refcounts, pinned-region
// ranges) that is usually cold, while each copy touches the data itself.
// Reproducing that mechanism requires an explicit cache model over the
// simulated address space, not just fixed per-operation constants.
//
// Replacement state is positional LRU over one flat, set-major tag array:
// set s owns tags[s*ways : s*ways+n[s]], most recently used first. A hit
// moves its tag to the front with one overlapping copy inside the set, a
// fill shifts the set down by one and drops the tail once the set is full,
// and a flush zeroes the per-set fill counts. Each set is one contiguous
// block of at most ways×8 bytes, so a probe touches one block of host
// memory (stamp_differential_test.go differences this layout against the
// retired tags[]+stamps[] model; lru_equivalence_test.go against the
// per-set-slice model before it).
//
// Addresses are simulated "physical" addresses handed out by internal/mem.
// Costs are returned in CPU cycles (float64) and converted to virtual time
// by internal/costmodel.
package cachesim

import (
	"fmt"
	"slices"
)

// LineSize is the cache line size in bytes. All x86 server parts the paper
// evaluates use 64-byte lines.
const LineSize = 64

// HitLevel identifies where an access was satisfied.
type HitLevel int

const (
	HitL1 HitLevel = iota
	HitL2
	HitL3
	HitDRAM
)

func (h HitLevel) String() string {
	switch h {
	case HitL1:
		return "L1"
	case HitL2:
		return "L2"
	case HitL3:
		return "L3"
	default:
		return "DRAM"
	}
}

// LevelConfig describes one cache level.
type LevelConfig struct {
	Size      int     // total bytes; must be a positive multiple of Ways*LineSize
	Ways      int     // associativity, 1..255
	LatencyCy float64 // access latency in cycles when the access hits here
}

// Config describes a hierarchy. Shared is true for levels shared between
// cores (only meaningful to callers that build per-core hierarchies).
type Config struct {
	L1, L2, L3 LevelConfig
	// DRAMLatencyCy is the cost of an access that misses every level.
	// The paper uses 100 ns ≈ 280 cycles at 2.8 GHz.
	DRAMLatencyCy float64
	// StreamFillCy is the charge for a DRAM line fill that the hardware
	// prefetcher has already covered: during a sequential copy only the
	// first line pays full DRAM latency; subsequent lines stream in at
	// roughly memory bandwidth.
	StreamFillCy float64
}

// DefaultConfig mirrors the AMD EPYC 7402P servers in the paper's testbed
// (§6.1.1), scaled to a single-core slice of the shared L3.
func DefaultConfig() Config {
	return Config{
		L1:            LevelConfig{Size: 32 << 10, Ways: 8, LatencyCy: 4},
		L2:            LevelConfig{Size: 512 << 10, Ways: 8, LatencyCy: 14},
		L3:            LevelConfig{Size: 16 << 20, Ways: 16, LatencyCy: 47},
		DRAMLatencyCy: 280, // 100 ns at 2.8 GHz
		// ≈64 B per 12 cycles ≈ 15 GB/s single-stream fill bandwidth.
		StreamFillCy: 12,
	}
}

// maxWays is the largest associativity the per-set fill count holds.
const maxWays = 255

// level is one set-associative cache level. Set s holds its n[s] resident
// lines at tags[s*ways : s*ways+n[s]], most recently used first; the ways
// past n[s] are empty. A set fills front-to-back before any eviction and
// empties only on flushAll.
type level struct {
	cfg     LevelConfig
	numSets int
	ways    int
	pow2    bool // set index via mask instead of modulo
	tags    []uint64
	n       []uint8
	// stats
	hits, misses uint64
}

func newLevel(cfg LevelConfig) *level {
	if cfg.Ways <= 0 || cfg.Ways > maxWays || cfg.Size <= 0 || cfg.Size%(cfg.Ways*LineSize) != 0 {
		panic(fmt.Sprintf("cachesim: invalid level config %+v: need 1..%d ways and a size that is a positive multiple of ways×%d", cfg, maxWays, LineSize))
	}
	numSets := cfg.Size / (cfg.Ways * LineSize)
	return &level{
		cfg:     cfg,
		numSets: numSets,
		ways:    cfg.Ways,
		pow2:    numSets&(numSets-1) == 0,
		tags:    make([]uint64, numSets*cfg.Ways),
		n:       make([]uint8, numSets),
	}
}

func (l *level) setIndex(line uint64) int {
	if l.pow2 {
		return int((line / LineSize) & uint64(l.numSets-1))
	}
	return int((line / LineSize) % uint64(l.numSets))
}

// set returns the resident lines of set s, most recently used first.
func (l *level) set(s int) []uint64 {
	base := s * l.ways
	return l.tags[base : base+int(l.n[s])]
}

// touch moves line to the front of set s and reports whether it was there.
func (l *level) touch(s int, line uint64) bool {
	set := l.set(s)
	for i, tag := range set {
		if tag == line {
			if i > 0 { // an MRU hit would pay a zero-length memmove call
				copy(set[1:i+1], set[:i])
				set[0] = line
			}
			return true
		}
	}
	return false
}

// lookup probes for line addr (already line-aligned). On hit it moves the
// line to the front of its set and returns true. On miss it returns false
// without filling.
func (l *level) lookup(line uint64) bool {
	if l.touch(l.setIndex(line), line) {
		l.hits++
		return true
	}
	l.misses++
	return false
}

// fill inserts line at the front of its set, evicting the tail (LRU) line
// if the set is full. The caller guarantees line is not already present
// (fill only runs after a missed lookup at this level).
func (l *level) fill(line uint64) {
	s := l.setIndex(line)
	if int(l.n[s]) < l.ways {
		l.n[s]++
	}
	set := l.set(s)
	copy(set[1:], set)
	set[0] = line
}

// contains probes without reordering the set or touching stats.
func (l *level) contains(line uint64) bool {
	return slices.Contains(l.set(l.setIndex(line)), line)
}

// flushAll drops every line (used by experiments to start cold) by
// emptying every set; the tag array is kept, so refills stay
// allocation-free.
func (l *level) flushAll() {
	clear(l.n)
}

// Stats for one level.
type LevelStats struct {
	Hits, Misses uint64
}

// Hierarchy is a three-level cache in front of DRAM. L3 may be shared with
// other hierarchies (see NewShared) to model multiple cores.
type Hierarchy struct {
	cfg    Config
	l1, l2 *level
	l3     *level
	ownsL3 bool
	// streamNext/streamValid track the sequential DRAM fill stream for
	// prefetch detection: streamNext is the line that would continue the
	// stream, valid only when streamValid is set. (An earlier version kept
	// a lastLine sentinel where zero meant "no stream", conflating a reset
	// with a legitimate fill of line 0.)
	streamNext  uint64
	streamValid bool
	// DRAMAccesses counts accesses that went all the way to memory.
	DRAMAccesses uint64
}

// New builds a hierarchy with a private L3.
func New(cfg Config) *Hierarchy {
	return &Hierarchy{
		cfg:    cfg,
		l1:     newLevel(cfg.L1),
		l2:     newLevel(cfg.L2),
		l3:     newLevel(cfg.L3),
		ownsL3: true,
	}
}

// NewShared builds a hierarchy whose L3 is shared with base (both cores hit
// and fill the same L3 state). base must have been built by New.
func NewShared(cfg Config, base *Hierarchy) *Hierarchy {
	return &Hierarchy{
		cfg: cfg,
		l1:  newLevel(cfg.L1),
		l2:  newLevel(cfg.L2),
		l3:  base.l3,
	}
}

// Access touches a single address (one line) and returns where it hit plus
// the cycle cost. Write-allocate: writes behave like reads for fill
// purposes (the line is brought in, dirtiness is not modelled because the
// paper's costs are read-latency dominated).
func (h *Hierarchy) Access(addr uint64) (HitLevel, float64) {
	line := addr &^ uint64(LineSize-1)
	if h.l1.lookup(line) {
		return HitL1, h.cfg.L1.LatencyCy
	}
	return h.missBelowL1(line)
}

// missBelowL1 resolves a line that already missed (and was counted by) L1:
// probe L2 and L3, fill upward, and charge DRAM with stream detection on a
// full miss.
func (h *Hierarchy) missBelowL1(line uint64) (HitLevel, float64) {
	if h.l2.lookup(line) {
		h.l1.fill(line)
		return HitL2, h.cfg.L2.LatencyCy
	}
	if h.l3.lookup(line) {
		h.l2.fill(line)
		h.l1.fill(line)
		return HitL3, h.cfg.L3.LatencyCy
	}
	// DRAM. Fill all levels.
	h.DRAMAccesses++
	h.l3.fill(line)
	h.l2.fill(line)
	h.l1.fill(line)
	cost := h.cfg.DRAMLatencyCy
	if h.streamValid && line == h.streamNext {
		// Sequential miss stream: the prefetcher has this line in flight.
		cost = h.cfg.StreamFillCy
	}
	h.streamNext = line + LineSize
	h.streamValid = true
	return HitDRAM, cost
}

// AccessRange touches every line in [addr, addr+n) and returns the total
// cycle cost plus the number of lines that missed to DRAM.
//
// This is the batched fast path for the copy/scatter-gather loops that
// dominate paper workloads: the L1 set index advances by increment-and-wrap
// (consecutive lines map to consecutive sets), so a range already resident
// in L1 costs one probe of an L1 set per line with no division and nothing
// touched below L1. Lines that
// miss fall into the same missBelowL1 path Access uses, so costs, stats,
// stream detection, and eviction order are exactly those of a per-line
// Access loop (range_equivalence_test.go pins this).
func (h *Hierarchy) AccessRange(addr uint64, n int) (cycles float64, dramLines int) {
	if n <= 0 {
		return 0, 0
	}
	line := addr &^ uint64(LineSize-1)
	nLines := int((addr+uint64(n)-1)/LineSize-line/LineSize) + 1
	l1 := h.l1
	idx := l1.setIndex(line)
	l1Cy := h.cfg.L1.LatencyCy
	for k := 0; k < nLines; k++ {
		if l1.touch(idx, line) {
			l1.hits++
			cycles += l1Cy
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

// Contains reports the highest (fastest) level currently holding addr, or
// HitDRAM if no level holds it. It does not disturb recency order, stats, or
// stream state, so interleaving probes with accesses leaves the eviction
// sequence unchanged (stream_contains_test.go).
func (h *Hierarchy) Contains(addr uint64) HitLevel {
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

// Stats returns per-level hit/miss counters in L1, L2, L3 order.
func (h *Hierarchy) Stats() [3]LevelStats {
	return [3]LevelStats{
		{h.l1.hits, h.l1.misses},
		{h.l2.hits, h.l2.misses},
		{h.l3.hits, h.l3.misses},
	}
}

// Flush empties every private level; the L3 is flushed only if owned (the
// hierarchy that created a shared L3 owns it). Stream-detection state is
// invalidated so the first post-flush DRAM fill always pays full latency.
func (h *Hierarchy) Flush() {
	h.l1.flushAll()
	h.l2.flushAll()
	if h.ownsL3 {
		h.l3.flushAll()
	}
	h.streamValid = false
}

// L3Size returns the configured L3 capacity in bytes, which experiments use
// to size working sets relative to cache (e.g. "5× larger than L3", §2.4).
func (h *Hierarchy) L3Size() int { return h.cfg.L3.Size }
