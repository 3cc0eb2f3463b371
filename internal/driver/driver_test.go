package driver

import (
	"fmt"
	"strings"
	"testing"

	"math/rand/v2"

	"cornflakes/internal/core"
	"cornflakes/internal/loadgen"
	"cornflakes/internal/nic"
	"cornflakes/internal/sim"
	"cornflakes/internal/workloads"
)

// runKV wires a testbed with the given system and workload, runs a short
// load, and returns the result plus the server for inspection.
func runKV(t *testing.T, sys System, gen workloads.Generator, rate float64) (loadgen.Result, *KVServer) {
	t.Helper()
	tb := NewTestbed(nic.MellanoxCX6())
	srv := NewKVServer(tb.Server, sys)
	srv.Preload(gen.Records())
	res := loadgen.Run(loadgen.Config{
		Eng: tb.Eng, EP: tb.Client.UDP,
		Gen: gen, Client: NewKVClient(tb.Client, sys),
		RatePerS: rate, Warmup: sim.Millisecond, Measure: 10 * sim.Millisecond, Seed: 42,
	})
	return res, srv
}

func TestKVEndToEndAllSystems(t *testing.T) {
	gen := workloads.NewYCSB(200, 1024, 2)
	for _, sys := range AllSystems() {
		t.Run(sys.String(), func(t *testing.T) {
			res, srv := runKV(t, sys, gen, 30_000)
			if srv.Errors != 0 {
				t.Errorf("server errors: %d", srv.Errors)
			}
			if res.BadResponses != 0 {
				t.Errorf("bad responses: %d", res.BadResponses)
			}
			if res.Completed == 0 {
				t.Fatal("no requests completed")
			}
			if res.AchievedRps < 0.9*res.OfferedRps {
				t.Errorf("%s underload run achieved %.0f of %.0f rps", sys, res.AchievedRps, res.OfferedRps)
			}
		})
	}
}

func TestKVTwitterWithPuts(t *testing.T) {
	gen := workloads.NewTwitter(500, 3)
	for _, sys := range []System{SysCornflakes, SysProtobuf} {
		res, srv := runKV(t, sys, gen, 30_000)
		if srv.Errors != 0 || res.BadResponses != 0 {
			t.Errorf("%s: errors=%d bad=%d", sys, srv.Errors, res.BadResponses)
		}
		if srv.Store.Puts == 0 {
			t.Errorf("%s: no puts reached the store", sys)
		}
		if res.Completed == 0 {
			t.Errorf("%s: nothing completed", sys)
		}
	}
}

func TestKVGetMMultipleKeys(t *testing.T) {
	// Drive GetM through a custom generator issuing multi-key requests.
	tb := NewTestbed(nic.MellanoxCX6())
	srv := NewKVServer(tb.Server, SysCornflakes)
	var recs []workloads.KV
	for i := 0; i < 10; i++ {
		recs = append(recs, workloads.KV{
			Key:  []byte(fmt.Sprintf("key-%02d", i)),
			Vals: [][]byte{make([]byte, 2048)},
		})
	}
	srv.Preload(recs)
	gen := &getmGen{nKeys: 10, perReq: 2}
	res := loadgen.Run(loadgen.Config{
		Eng: tb.Eng, EP: tb.Client.UDP,
		Gen: gen, Client: NewKVClient(tb.Client, SysCornflakes),
		RatePerS: 20_000, Warmup: sim.Millisecond, Measure: 5 * sim.Millisecond, Seed: 1,
	})
	if srv.Errors != 0 || res.BadResponses != 0 || res.Completed == 0 {
		t.Errorf("errors=%d bad=%d completed=%d", srv.Errors, res.BadResponses, res.Completed)
	}
	if srv.N.UDP.TxZCEntries == 0 {
		t.Error("2048-byte values should go out as zero-copy entries")
	}
}

type getmGen struct {
	nKeys, perReq int
	i             int
}

func (g *getmGen) Name() string            { return "getm" }
func (g *getmGen) Records() []workloads.KV { return nil }
func (g *getmGen) Next(_ *rand.Rand) workloads.Request {
	keys := make([][]byte, g.perReq)
	for j := range keys {
		keys[j] = []byte(fmt.Sprintf("key-%02d", (g.i+j)%g.nKeys))
	}
	g.i++
	return workloads.Request{Op: workloads.OpGetM, Keys: keys}
}

func TestKVCDNMultiStep(t *testing.T) {
	gen := workloads.NewCDN(50, 8000, 64<<10, 7)
	res, srv := runKV(t, SysCornflakes, gen, 5_000)
	if srv.Errors != 0 || res.BadResponses != 0 {
		t.Errorf("errors=%d bad=%d", srv.Errors, res.BadResponses)
	}
	if res.Completed == 0 {
		t.Fatal("no objects completed")
	}
	// Multi-segment objects mean more packets than objects.
	if srv.Handled <= res.Completed {
		t.Errorf("handled %d packets for %d objects; expected more", srv.Handled, res.Completed)
	}
}

func TestKVThresholdKnobs(t *testing.T) {
	gen := workloads.NewYCSB(100, 1024, 2)
	for _, th := range []int{core.ThresholdAllZeroCopy, core.DefaultThreshold, core.ThresholdAllCopy} {
		tb := NewTestbed(nic.MellanoxCX6())
		srv := NewKVServer(tb.Server, SysCornflakes)
		tb.Server.Ctx.Threshold = th
		srv.Preload(gen.Records())
		res := loadgen.Run(loadgen.Config{
			Eng: tb.Eng, EP: tb.Client.UDP,
			Gen: gen, Client: NewKVClient(tb.Client, SysCornflakes),
			RatePerS: 10_000, Warmup: sim.Millisecond, Measure: 5 * sim.Millisecond, Seed: 9,
		})
		if srv.Errors != 0 || res.BadResponses != 0 || res.Completed == 0 {
			t.Errorf("threshold %d: errors=%d bad=%d done=%d", th, srv.Errors, res.BadResponses, res.Completed)
		}
		zc := srv.N.UDP.TxZCEntries
		if th == core.ThresholdAllCopy && zc != 0 {
			t.Errorf("copy-only config posted %d ZC entries", zc)
		}
		if th != core.ThresholdAllCopy && zc == 0 {
			t.Errorf("threshold %d posted no ZC entries", th)
		}
	}
}

func TestKVSGArrayAblationPath(t *testing.T) {
	gen := workloads.NewYCSB(100, 1024, 2)
	tb := NewTestbed(nic.MellanoxCX6())
	srv := NewKVServer(tb.Server, SysCornflakes)
	srv.UseSGArray = true
	srv.Preload(gen.Records())
	res := loadgen.Run(loadgen.Config{
		Eng: tb.Eng, EP: tb.Client.UDP,
		Gen: gen, Client: NewKVClient(tb.Client, SysCornflakes),
		RatePerS: 10_000, Warmup: sim.Millisecond, Measure: 5 * sim.Millisecond, Seed: 10,
	})
	if srv.Errors != 0 || res.BadResponses != 0 || res.Completed == 0 {
		t.Errorf("SG-array path: errors=%d bad=%d done=%d", srv.Errors, res.BadResponses, res.Completed)
	}
}

func TestEchoAllModes(t *testing.T) {
	modes := []struct {
		mode EchoMode
		sys  System
	}{
		{EchoNoSer, SysCornflakes},
		{EchoZeroCopy, SysCornflakes},
		{EchoOneCopy, SysCornflakes},
		{EchoTwoCopy, SysCornflakes},
		{EchoLib, SysCornflakes},
		{EchoLib, SysProtobuf},
		{EchoLib, SysFlatBuffers},
		{EchoLib, SysCapnProto},
	}
	for _, tc := range modes {
		name := tc.mode.String()
		if tc.mode == EchoLib {
			name = tc.sys.String()
		}
		t.Run(name, func(t *testing.T) {
			tb := NewTestbed(nic.MellanoxCX6())
			srv := NewEchoServer(tb.Server, tc.mode, tc.sys, 2048, 2)
			client := &EchoClient{Mode: tc.mode, Sys: tc.sys, N: tb.Client, FieldSize: 2048, NumFields: 2}
			res := loadgen.Run(loadgen.Config{
				Eng: tb.Eng, EP: tb.Client.UDP,
				Gen: genNop{}, Client: client,
				RatePerS: 20_000, Warmup: sim.Millisecond, Measure: 5 * sim.Millisecond, Seed: 3,
			})
			if srv.Errors != 0 {
				t.Errorf("server errors: %d", srv.Errors)
			}
			if res.BadResponses != 0 {
				t.Errorf("bad responses: %d", res.BadResponses)
			}
			if res.Completed == 0 {
				t.Fatal("nothing completed")
			}
		})
	}
}

// Echo cost ordering (the Figure 2 story): no-ser < zero-copy < one-copy <
// two-copy < libraries, measured as max sustainable throughput proxies via
// p50 latency at fixed moderate load.
func TestEchoModeOrdering(t *testing.T) {
	serviceCost := func(mode EchoMode, sys System) float64 {
		tb := NewTestbed(nic.MellanoxCX6())
		NewEchoServer(tb.Server, mode, sys, 2048, 2)
		client := &EchoClient{Mode: mode, Sys: sys, N: tb.Client, FieldSize: 2048, NumFields: 2}
		loadgen.Run(loadgen.Config{
			Eng: tb.Eng, EP: tb.Client.UDP,
			Gen: genNop{}, Client: client,
			RatePerS: 20_000, Warmup: sim.Millisecond, Measure: 5 * sim.Millisecond, Seed: 4,
		})
		// Busy time per handled request is the service cost.
		return float64(tb.Server.Core.BusyTime) / float64(tb.Server.Core.JobsDone)
	}
	noSer := serviceCost(EchoNoSer, SysCornflakes)
	zc := serviceCost(EchoZeroCopy, SysCornflakes)
	oneCopy := serviceCost(EchoOneCopy, SysCornflakes)
	twoCopy := serviceCost(EchoTwoCopy, SysCornflakes)
	proto := serviceCost(EchoLib, SysProtobuf)
	fb := serviceCost(EchoLib, SysFlatBuffers)
	if !(noSer <= zc && zc < oneCopy && oneCopy < twoCopy) {
		t.Errorf("manual path ordering broken: noser=%.0f zc=%.0f 1copy=%.0f 2copy=%.0f",
			noSer, zc, oneCopy, twoCopy)
	}
	if proto <= twoCopy {
		t.Errorf("protobuf (%.0f) should cost more than bare two-copy (%.0f)", proto, twoCopy)
	}
	if fb <= twoCopy {
		t.Errorf("flatbuffers (%.0f) should cost more than bare two-copy (%.0f)", fb, twoCopy)
	}
}

func TestTCPEchoModes(t *testing.T) {
	arms := []struct {
		name string
		mode EchoMode
		sys  System
	}{
		{"Raw packet echo", EchoOneCopy, SysCornflakes},
		{"FlatBuffers", EchoLib, SysFlatBuffers},
		{"Cornflakes", EchoLib, SysCornflakes},
	}
	for _, a := range arms {
		t.Run(a.name, func(t *testing.T) {
			tb := NewTCPTestbed(nic.MellanoxCX6())
			srv := NewEchoServer(tb.Server, a.mode, a.sys, 2048, 2)
			client := &EchoClient{Mode: a.mode, Sys: a.sys, N: tb.Client, FieldSize: 2048, NumFields: 2}
			res := loadgen.Run(loadgen.Config{
				Eng: tb.Eng, EP: tb.Client.TCP,
				Gen: genNop{}, Client: client,
				RatePerS: 5_000, Warmup: sim.Millisecond, Measure: 5 * sim.Millisecond, Seed: 5,
			})
			if srv.Errors != 0 || res.BadResponses != 0 || res.Completed == 0 {
				t.Errorf("errors=%d bad=%d done=%d", srv.Errors, res.BadResponses, res.Completed)
			}
			if tb.Client.TCP.Retransmits != 0 || tb.Server.TCP.Retransmits != 0 {
				t.Error("unexpected retransmissions on a clean link")
			}
		})
	}
}

// Server configurations whose replies need UDP-only sends must fail when
// built on a TCP node, naming the combination, instead of crashing on the
// first reply; the ones that work over TCP must build.
func TestTCPServerConstructionChecks(t *testing.T) {
	cases := []struct {
		name  string
		build func(n *Node)
		want  string // panic substring; empty means no panic
	}{
		{"kv/Protobuf", func(n *Node) { NewKVServer(n, SysProtobuf) }, "Protobuf KV server"},
		{"kv/CapnProto", func(n *Node) { NewKVServer(n, SysCapnProto) }, "Cap'n Proto KV server"},
		{"kv/FlatBuffers", func(n *Node) { NewKVServer(n, SysFlatBuffers) }, ""},
		{"kv/Cornflakes", func(n *Node) { NewKVServer(n, SysCornflakes) }, ""},
		{"echo/NoSer", func(n *Node) { NewEchoServer(n, EchoNoSer, SysCornflakes, 64, 1) }, "echo server (No serialization"},
		{"echo/ZeroCopy", func(n *Node) { NewEchoServer(n, EchoZeroCopy, SysCornflakes, 64, 1) }, "echo server (Zero-copy"},
		{"echo/Protobuf", func(n *Node) { NewEchoServer(n, EchoLib, SysProtobuf, 64, 1) }, "Protobuf"},
		{"echo/CapnProto", func(n *Node) { NewEchoServer(n, EchoLib, SysCapnProto, 64, 1) }, "Cap'n Proto"},
		{"echo/OneCopy", func(n *Node) { NewEchoServer(n, EchoOneCopy, SysCornflakes, 64, 1) }, ""},
		{"echo/TwoCopy", func(n *Node) { NewEchoServer(n, EchoTwoCopy, SysCornflakes, 64, 1) }, ""},
		{"echo/FlatBuffers", func(n *Node) { NewEchoServer(n, EchoLib, SysFlatBuffers, 64, 1) }, ""},
		{"echo/Cornflakes", func(n *Node) { NewEchoServer(n, EchoLib, SysCornflakes, 64, 1) }, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var got any
			func() {
				defer func() { got = recover() }()
				tc.build(NewTCPTestbed(nic.MellanoxCX6()).Server)
			}()
			switch msg, _ := got.(string); {
			case tc.want == "" && got != nil:
				t.Errorf("unexpected panic: %v", got)
			case tc.want != "" && !strings.Contains(msg, tc.want):
				t.Errorf("panic = %v, want a message containing %q", got, tc.want)
			}
		})
	}
}

// genNop emits empty requests (the echo client ignores them).
type genNop struct{}

func (genNop) Name() string                      { return "nop" }
func (genNop) Records() []workloads.KV           { return nil }
func (genNop) Next(*rand.Rand) workloads.Request { return workloads.Request{} }
