package rpc

import (
	"math/rand/v2"
	"testing"

	"cornflakes/internal/cachesim"
	"cornflakes/internal/costmodel"
	"cornflakes/internal/driver"
	"cornflakes/internal/fabric"
	"cornflakes/internal/loadgen"
	"cornflakes/internal/nic"
	"cornflakes/internal/sim"
	"cornflakes/internal/workloads"
)

type genConst struct{}

func (genConst) Name() string                      { return "const" }
func (genConst) Records() []workloads.KV           { return nil }
func (genConst) Next(*rand.Rand) workloads.Request { return workloads.Request{Op: workloads.OpGet} }

func chainCfg(sys driver.System, depth, fanout int) ChainConfig {
	return ChainConfig{
		Sys: sys, Profile: nic.MellanoxCX6(), Cache: cachesim.DefaultConfig(),
		Fabric: fabric.Config{},
		Depth:  depth, Fanout: fanout,
		AppCycles: 1500, ReqBytes: 64, FwdBytes: 64, RespBytes: 128,
	}
}

func runChain(t *testing.T, c *Chain, rate float64, retry loadgen.RetryPolicy, hedge loadgen.HedgePolicy) loadgen.Result {
	t.Helper()
	res := loadgen.Run(loadgen.Config{
		Eng: c.Eng, EP: c.Client.N.UDP,
		Gen: genConst{}, Client: c.Client,
		RatePerS: rate,
		Warmup:   200 * sim.Microsecond,
		Measure:  2 * sim.Millisecond,
		Seed:     7,
		Retry:    retry,
		Hedge:    hedge,
		ShedID:   driver.ShedID,
	})
	c.Eng.Run() // quiesce: fan-in timers and stragglers resolve
	return res
}

func assertDisposalExact(t *testing.T, res loadgen.Result) {
	t.Helper()
	if res.Sent != res.Completed+res.Shed+res.TimedOut+res.Unresolved {
		t.Fatalf("disposal gap: sent=%d done=%d shed=%d to=%d unres=%d",
			res.Sent, res.Completed, res.Shed, res.TimedOut, res.Unresolved)
	}
}

func assertLedgers(t *testing.T, c *Chain) {
	t.Helper()
	for _, s := range c.Services {
		if !s.ChildLedgerExact() {
			t.Errorf("%s: child ledger gap: calls=%d replies=%d sheds=%d abandoned=%d late=%d",
				s.Name, s.ChildCalls, s.ChildReplies, s.ChildSheds, s.ChildAbandoned, s.LateChildReplies)
		}
		if n := s.PendingChildren(); n != 0 {
			t.Errorf("%s: %d children still pending after quiesce", s.Name, n)
		}
	}
}

func TestHeaderRoundTrip(t *testing.T) {
	h := Header{Kind: KindReply, Method: 7, Hop: 3, CallID: 0xDEADBEEF01, RootID: 0x1CEB00DA02}
	var b [HeaderLen]byte
	h.EncodeTo(b[:])
	if got := DecodeHeader(b[:]); got != h {
		t.Fatalf("round trip: got %+v want %+v", got, h)
	}
	id, ok := PeekRootID(b[:])
	if !ok || id != h.RootID {
		t.Fatalf("PeekRootID = %x, %v", id, ok)
	}
	if _, ok := PeekRootID(b[:HeaderLen-1]); ok {
		t.Fatal("PeekRootID accepted a short frame")
	}
}

// Every serialization system must carry a call through a single hop and
// back, with real (metered) marshalling on the service.
func TestSingleHopAllSystems(t *testing.T) {
	for _, sys := range driver.AllSystems() {
		t.Run(sys.String(), func(t *testing.T) {
			c := NewChain(chainCfg(sys, 1, 0))
			res := runChain(t, c, 40_000, loadgen.RetryPolicy{}, loadgen.HedgePolicy{})
			if res.Completed == 0 {
				t.Fatal("no calls completed")
			}
			assertDisposalExact(t, res)
			svc := c.Services[0]
			if svc.Errors != 0 {
				t.Fatalf("service errors: %d", svc.Errors)
			}
			if svc.RepliesSent != svc.Handled {
				t.Fatalf("replies %d != handled %d", svc.RepliesSent, svc.Handled)
			}
			rec, n := c.HostReceipt()
			if n == 0 || rec.Cycles[costmodel.CatSerialize] <= 0 || rec.Cycles[costmodel.CatDeserialize] <= 0 {
				t.Fatalf("marshalling not metered: n=%d ser=%.0f des=%.0f",
					n, rec.Cycles[costmodel.CatSerialize], rec.Cycles[costmodel.CatDeserialize])
			}
		})
	}
}

// Chaining tiers compounds marshalling: total host serialization cycles
// per completed call must grow roughly linearly with hop count.
func TestSerializationCompoundsPerHop(t *testing.T) {
	perCall := func(depth int) float64 {
		c := NewChain(chainCfg(driver.SysProtobuf, depth, 0))
		res := runChain(t, c, 30_000, loadgen.RetryPolicy{}, loadgen.HedgePolicy{})
		if res.Completed == 0 {
			t.Fatalf("depth %d: nothing completed", depth)
		}
		rec, _ := c.HostReceipt()
		ser := rec.Cycles[costmodel.CatSerialize] + rec.Cycles[costmodel.CatDeserialize]
		return ser / float64(res.Completed)
	}
	d1, d3 := perCall(1), perCall(3)
	if d3 < 2*d1 {
		t.Fatalf("ser/des per call did not compound with depth: d1=%.0f d3=%.0f", d1, d3)
	}
}

// A mid-chain admission shed must propagate hop by hop to the client and
// classify as Shed there, leaving the disposal ledger exact.
func TestShedPropagatesUpstream(t *testing.T) {
	cfg := chainCfg(driver.SysCornflakes, 2, 0)
	cfg.CallTimeout = 200 * sim.Microsecond
	c := NewChain(cfg)
	// Choke the deepest tier only: the frontend stays healthy, so every
	// client-visible shed had to ride through it.
	c.Services[1].ShedQueue = 1
	c.Services[1].AppCycles = 200_000
	res := runChain(t, c, 60_000,
		loadgen.RetryPolicy{Deadline: 2 * sim.Millisecond}, loadgen.HedgePolicy{})
	if res.Shed == 0 {
		t.Fatal("no sheds reached the client")
	}
	if c.Services[0].ChildSheds == 0 {
		t.Fatal("frontend never saw a backend shed")
	}
	assertDisposalExact(t, res)
	assertLedgers(t, c)
}

// One-way notifications: the frontend emits one per reply, the sink
// processes every one that the fabric delivered, and nobody answers them.
func TestNotifySink(t *testing.T) {
	cfg := chainCfg(driver.SysCornflakes, 1, 0)
	cfg.Notify = true
	c := NewChain(cfg)
	res := runChain(t, c, 30_000, loadgen.RetryPolicy{}, loadgen.HedgePolicy{})
	if res.Completed == 0 {
		t.Fatal("nothing completed")
	}
	front := c.Services[0]
	if front.NotifiesSent == 0 {
		t.Fatal("frontend sent no notifies")
	}
	if c.Sink.NotifiesRecv != front.NotifiesSent {
		t.Fatalf("sink processed %d of %d notifies", c.Sink.NotifiesRecv, front.NotifiesSent)
	}
	if c.Sink.RepliesSent != 0 {
		t.Fatal("sink answered a one-way frame")
	}
}

// The RPCAcc-style offload engine must move serialization cycles off the
// host cores: host-side serialization per handled call drops to the
// header-only residue, and the moved cycles show up on the offload
// receipts instead. RX, deserialize and app work stay on the host: the
// offload receipts carry none of them, and host deserialize per call
// stays within 10% of the baseline (the shared cache is touched at
// different instants, so close, not equal).
func TestOffloadMovesSerializationOffHost(t *testing.T) {
	hostRec := func(off bool) (perCall costmodel.Receipt, c *Chain) {
		cfg := chainCfg(driver.SysProtobuf, 2, 0)
		cfg.Offload = off
		c = NewChain(cfg)
		res := runChain(t, c, 30_000, loadgen.RetryPolicy{}, loadgen.HedgePolicy{})
		if res.Completed == 0 {
			t.Fatalf("offload=%v: nothing completed", off)
		}
		rec, n := c.HostReceipt()
		rec.Scale(float64(n))
		return rec, c
	}
	onRec, con := hostRec(true)
	offRec, _ := hostRec(false)
	on, off := onRec.Cycles[costmodel.CatSerialize], offRec.Cycles[costmodel.CatSerialize]
	if off <= 0 {
		t.Fatalf("baseline host serialization is zero (%.1f)", off)
	}
	if on > off/2 {
		t.Fatalf("offload left %.1f ser cycles/call on host (baseline %.1f)", on, off)
	}
	orec, _ := con.OffloadReceipt()
	if orec.Cycles[costmodel.CatSerialize] <= 0 {
		t.Fatal("offload engine recorded no serialization cycles")
	}
	for _, cat := range []costmodel.Category{costmodel.CatRx, costmodel.CatDeserialize, costmodel.CatApp} {
		if orec.Cycles[cat] != 0 {
			t.Errorf("offload receipts carry %.0f %v cycles; that work belongs to the host", orec.Cycles[cat], cat)
		}
	}
	des, base := onRec.Cycles[costmodel.CatDeserialize], offRec.Cycles[costmodel.CatDeserialize]
	if base <= 0 || des < 0.9*base || des > 1.1*base {
		t.Errorf("host deserialize %.1f cycles/call with offload, %.1f without", des, base)
	}
}

// Same seed, same config → byte-identical outcome counters and latency
// quantiles. The RPC layer must not leak map iteration or pointer order
// into the simulation.
func TestChainDeterminism(t *testing.T) {
	type fp struct {
		sent, done, shed, to uint64
		p50, p99             sim.Time
		handled              uint64
	}
	run := func() fp {
		cfg := chainCfg(driver.SysCornflakes, 3, 2)
		cfg.CallTimeout = 300 * sim.Microsecond
		c := NewChain(cfg)
		res := runChain(t, c, 50_000,
			loadgen.RetryPolicy{Deadline: 600 * sim.Microsecond, MaxRetries: 1, Backoff: 50 * sim.Microsecond},
			loadgen.HedgePolicy{})
		var h uint64
		for _, s := range c.Services {
			h += s.Handled
		}
		return fp{res.Sent, res.Completed, res.Shed, res.TimedOut, res.P50(), res.P99(), h}
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("nondeterministic chain run:\n  a=%+v\n  b=%+v", a, b)
	}
}
