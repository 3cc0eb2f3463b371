package experiments

import (
	"fmt"

	"cornflakes/internal/cachesim"
	"cornflakes/internal/costmodel"
	"cornflakes/internal/loadgen"
	"cornflakes/internal/mem"
	"cornflakes/internal/netstack"
	"cornflakes/internal/nic"
	"cornflakes/internal/sim"
	"cornflakes/internal/wire"
	"cornflakes/internal/workloads"
)

// The scatter-gather microbenchmark of §2.4 (Figure 3) and §6.6
// (Figure 13): a server holds a large array of non-contiguous pinned
// buffers, several times larger than L3; requests name a run of buffers
// and the server concatenates them into the response, either by copying or
// by scatter-gather.

// microMode selects the response datapath.
type microMode int

const (
	microCopy   microMode = iota // copy every buffer into the DMA payload
	microSGSafe                  // scatter-gather with safety/transparency bookkeeping
	microSGRaw                   // raw scatter-gather (upper bound, §2.4)
)

func (m microMode) String() string {
	switch m {
	case microCopy:
		return "copy"
	case microSGSafe:
		return "sg+overheads"
	default:
		return "raw sg"
	}
}

// expCacheConfig shrinks the modelled L3 so scaled-down working sets keep
// the paper's working-set-to-cache ratios (their 1M-key stores are many
// times larger than the L3; our stores are many times this 2 MB L3).
func expCacheConfig() cachesim.Config {
	cfg := cachesim.DefaultConfig()
	cfg.L3.Size = 2 << 20
	return cfg
}

// microServer serves the microbenchmark on one or more cores sharing one
// NIC port. The buffer array is sharded across cores; requests address
// (shard, start) and the port handler demultiplexes to the owning core,
// each with private L1/L2 and a shared L3 (§6.6).
type microServer struct {
	eng     *sim.Engine
	port    *nic.Port
	alloc   *mem.Allocator
	cores   []*sim.Core
	meters  []*costmodel.Meter
	shards  [][]*mem.Buf
	mode    microMode
	segSize int
	count   int // buffers per request

	// Per-core completion releasers (see microSafeRel/microCopyRel) and the
	// serve-path scratch. The engine is serial, and serve runs to completion
	// inside one core job, so one scratch per server never aliases; the NIC
	// copies the gather list at post time.
	safeRels []microSafeRel
	copyRels []microCopyRel
	segs     []*mem.Buf
	entries  []nic.SGEntry
	jobPool  []*microJob
}

// microJob is a pooled serve request: onFrame fills one in and submits its
// pre-bound run closure, so the steady-state dispatch path allocates
// nothing per frame.
type microJob struct {
	s            *microServer
	m            *costmodel.Meter
	shard, start int
	id           uint64
	run          func() sim.Time
}

func (j *microJob) exec() sim.Time {
	j.s.serve(j.m, j.shard, j.start, j.id)
	t := j.m.DrainTime()
	j.s.jobPool = append(j.s.jobPool, j)
	return t
}

func (s *microServer) getJob() *microJob {
	if k := len(s.jobPool); k > 0 {
		j := s.jobPool[k-1]
		s.jobPool = s.jobPool[:k-1]
		return j
	}
	j := &microJob{s: s}
	j.run = j.exec
	return j
}

// microSafeRel is the DMA-completion hook of the safe scatter-gather mode:
// completion charge, refcount metadata access, decref — on the owning
// core's meter (§2.3).
type microSafeRel struct{ m *costmodel.Meter }

func (r *microSafeRel) ReleaseSG(arg any) {
	b := arg.(*mem.Buf)
	r.m.Charge(r.m.CPU.CompletionCy)
	r.m.MetadataAccess(b.RefcountSimAddr())
	b.DecRef()
}

// microCopyRel is the copy mode's completion hook: the completion charge
// without safety metadata (there is no shared buffer to protect).
type microCopyRel struct{ m *costmodel.Meter }

func (r *microCopyRel) ReleaseSG(arg any) {
	b := arg.(*mem.Buf)
	r.m.Charge(r.m.CPU.CompletionCy)
	b.DecRef()
}

// microRawRel drops the in-flight reference with no charges: the raw
// scatter-gather upper bound (§2.4) pays for nothing it can avoid.
type microRawRel struct{}

func (microRawRel) ReleaseSG(arg any) { arg.(*mem.Buf).DecRef() }

var microRaw microRawRel

// request layout (UDP payload): u64 id | u32 shard | u32 start.
const microReqLen = 16

func newMicroServer(eng *sim.Engine, port *nic.Port, nCores int, mode microMode,
	segSize, count, workingSet int, cacheCfg cachesim.Config) *microServer {

	s := &microServer{
		eng: eng, port: port, alloc: mem.NewAllocator(),
		mode: mode, segSize: segSize, count: count,
	}
	base := cachesim.New(cacheCfg)
	for i := 0; i < nCores; i++ {
		cache := base
		if i > 0 {
			cache = cachesim.NewShared(cacheCfg, base)
		}
		s.meters = append(s.meters, costmodel.NewMeter(costmodel.DefaultCPU(), cache))
		core := sim.NewCore(eng)
		core.MaxQueue = 1024
		s.cores = append(s.cores, core)
	}
	for i := 0; i < nCores; i++ {
		s.safeRels = append(s.safeRels, microSafeRel{m: s.meters[i]})
		s.copyRels = append(s.copyRels, microCopyRel{m: s.meters[i]})
	}
	s.segs = make([]*mem.Buf, count)
	perShard := workingSet / nCores / segSize
	if perShard < count {
		perShard = count
	}
	for i := 0; i < nCores; i++ {
		shard := make([]*mem.Buf, perShard)
		for j := range shard {
			b := s.alloc.Alloc(segSize)
			for k := 0; k < segSize; k += 64 {
				b.Bytes()[k] = byte(i + j + k)
			}
			shard[j] = b
		}
		s.shards = append(s.shards, shard)
	}
	port.SetHandler(s.onFrame)
	return s
}

func (s *microServer) perShard() int { return len(s.shards[0]) }

func (s *microServer) onFrame(f *nic.Frame) {
	if len(f.Data) < netstack.PacketHeaderLen+microReqLen {
		return
	}
	req := f.Data[netstack.PacketHeaderLen:]
	id := wire.GetU64(req)
	shard := int(wire.GetU32(req[8:])) % len(s.shards)
	start := int(wire.GetU32(req[12:])) % len(s.shards[shard])
	j := s.getJob()
	j.m = s.meters[shard]
	j.shard, j.start, j.id = shard, start, id
	s.cores[shard].Submit(sim.Job{Run: j.run})
}

// serve builds and posts the response, charging the owning core's meter.
// The response payload is [u64 id | buffer data...].
func (s *microServer) serve(m *costmodel.Meter, shard, start int, id uint64) {
	cpu := m.CPU
	m.Charge(cpu.RxPacketCy)
	bufs := s.shards[shard]
	segs := s.segs
	for i := range segs {
		segs[i] = bufs[(start+i)%len(bufs)]
	}

	if s.mode == microCopy {
		total := 8 + s.count*s.segSize
		out := s.alloc.Alloc(netstack.PacketHeaderLen + total)
		m.Charge(cpu.DMABufAllocCy + cpu.PktHeaderCy)
		m.Access(out.SimAddr(), netstack.PacketHeaderLen)
		wire.PutU64(out.Bytes()[netstack.PacketHeaderLen:], id)
		cur := netstack.PacketHeaderLen + 8
		for _, b := range segs {
			m.Copy(b.SimAddr(), out.SimAddr()+uint64(cur), b.Len())
			copy(out.Bytes()[cur:], b.Bytes())
			cur += b.Len()
		}
		m.Charge(cpu.TxDescCy)
		s.entries = append(s.entries[:0], nic.SGEntry{
			Data: out.Bytes(), Sim: out.SimAddr(),
			Rel:    &s.copyRels[shard],
			RelArg: out,
		})
		s.port.Send(s.entries)
		return
	}

	hdr := s.alloc.Alloc(netstack.PacketHeaderLen + 8)
	m.Charge(cpu.DMABufAllocCy + cpu.PktHeaderCy)
	m.Access(hdr.SimAddr(), netstack.PacketHeaderLen)
	wire.PutU64(hdr.Bytes()[netstack.PacketHeaderLen:], id)
	entries := append(s.entries[:0], nic.SGEntry{
		Data: hdr.Bytes(), Sim: hdr.SimAddr(),
		Rel: microRaw, RelArg: hdr,
	})
	m.Charge(cpu.TxDescCy)
	for _, b := range segs {
		b.IncRef() // the NIC's in-flight reference
		m.SGPost()
		e := nic.SGEntry{Data: b.Bytes(), Sim: b.SimAddr(), RelArg: b}
		if s.mode == microSGSafe {
			// Memory transparency + safety: pinned-range lookup, refcount
			// update now and at completion (§2.3).
			m.Charge(cpu.RegistryLookupCy)
			m.MetadataAccess(b.RefcountSimAddr())
			e.Rel = &s.safeRels[shard]
		} else {
			e.Rel = microRaw // raw: physics only, no charges
		}
		entries = append(entries, e)
	}
	s.entries = entries[:0]
	if err := s.port.Send(entries); err != nil {
		panic(fmt.Sprintf("microbench: %v", err))
	}
}

// microClient drives the microbenchmark through loadgen. Shard and start
// are derived deterministically from the request id.
type microClient struct {
	shards, perShard int
	// buf is the request scratch: the transport copies the payload into the
	// DMA buffer before SendContiguous returns, so one buffer serves every
	// request.
	buf [microReqLen]byte
}

func (c *microClient) Steps(workloads.Request) int { return 1 }

func (c *microClient) BuildStep(id uint64, _ workloads.Request, _ int) []byte {
	b := c.buf[:]
	wire.PutU64(b, id)
	h := splitmix(id)
	wire.PutU32(b[8:], uint32(h%uint64(c.shards)))
	wire.PutU32(b[12:], uint32((h>>20)%uint64(c.perShard)))
	return b
}

func (c *microClient) ResponseID(p []byte) (uint64, error) {
	if len(p) < 8 {
		return 0, fmt.Errorf("short microbench response")
	}
	return wire.GetU64(p), nil
}

// splitmix is SplitMix64: a deterministic id → pseudo-random mapping.
func splitmix(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// microMaxGbps measures the highest achieved response throughput for one
// microbenchmark configuration. Every response in a configuration has the
// same size, so maxTput's best point by req/s is also the best by Gbps.
func microMaxGbps(mode microMode, nCores, segSize, count, workingSet int, sc Scale, seed uint64) float64 {
	run := func(rate float64) loadgen.Result {
		eng := sim.NewEngine()
		prof := nic.MellanoxCX5Ex()
		pc, ps := nic.Link(eng, prof, prof, 1500*sim.Nanosecond)
		clientAlloc := mem.NewAllocator()
		clientMeter := costmodel.NewMeter(costmodel.DefaultCPU(), nil) // a load generator: no memory model
		clientUDP := netstack.NewUDP(eng, pc, clientAlloc, clientMeter)
		srv := newMicroServer(eng, ps, nCores, mode, segSize, count, workingSet, expCacheConfig())
		return loadgen.Run(loadgen.Config{
			Eng: eng, EP: clientUDP,
			Gen:      nopGen{},
			Client:   &microClient{shards: nCores, perShard: srv.perShard()},
			RatePerS: rate,
			Warmup:   sim.Time(sc.WarmupMs) * sim.Millisecond,
			Measure:  sim.Time(sc.MeasureMs) * sim.Millisecond,
			Seed:     seed,
		})
	}
	return maxTput(run, 150_000*float64(nCores)).AchievedGbps
}
