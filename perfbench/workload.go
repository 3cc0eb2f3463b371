package main

import (
	"fmt"
	"math/rand/v2"

	"cornflakes/internal/cachesim"
	"cornflakes/internal/costmodel"
	"cornflakes/internal/driver"
	"cornflakes/internal/loadgen"
	"cornflakes/internal/netstack"
	"cornflakes/internal/nic"
	"cornflakes/internal/rpc"
	"cornflakes/internal/sim"
	"cornflakes/internal/workloads"
)

// workload is one benchmark traffic mix: open-loop Poisson load in
// simulated time from one loadgen client on one serial engine.
type workload struct {
	name    string
	rate    float64 // offered load, requests per simulated second
	warmup  sim.Time
	measure sim.Time
	// setup generates the inputs from seed, builds the testbed and
	// preloads it, recording one span per layer call on tr.
	setup func(seed uint64, tr *tracer) *testbed
}

// The modelled caches start empty; the warmup window fills them before
// measurement starts. Each window is long enough that the measured phase
// completes well over the 10k requests a p99.9 needs.
var allWorkloads = []workload{
	{
		// The paper's headline path: Twitter value sizes straddle the
		// 512 B hybrid threshold, so both the copy and the zero-copy
		// branches run, and 8% of requests are puts. 100k keys put the
		// working set above the modelled 16 MiB L3.
		name: "kv-twitter", rate: 1.2e6,
		warmup: 5 * sim.Millisecond, measure: 50 * sim.Millisecond,
		setup: func(seed uint64, tr *tracer) *testbed {
			return setupKV(seed, tr, driver.SysCornflakes, func() workloads.Generator {
				return workloads.NewTwitter(100_000, seed)
			})
		},
	},
	{
		// A copy-bound, per-byte path: Protobuf on read-only YCSB with
		// 64 MiB of values (4x the modelled L3). The zero-copy machinery
		// does nothing here, so a zero-copy optimisation must not move it.
		name: "kv-ycsb-copy", rate: 450e3,
		warmup: 5 * sim.Millisecond, measure: 120 * sim.Millisecond,
		setup: func(seed uint64, tr *tracer) *testbed {
			return setupKV(seed, tr, driver.SysProtobuf, func() workloads.Generator {
				return workloads.NewYCSB(16000, 2048, 2)
			})
		},
	},
	{
		// Small messages over many hops: the per-event and per-frame paths
		// (sim, nic, netstack, fabric, rpc) dominate, the per-byte cache
		// model and kvstore barely run, and building six rack nodes makes
		// the testbed build the bulk of set-up.
		name: "rpc-fanout", rate: 150e3,
		warmup: 5 * sim.Millisecond, measure: 200 * sim.Millisecond,
		setup: setupRPC,
	},
}

func findWorkload(name string) (workload, error) {
	for _, w := range allWorkloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(allWorkloads))
	for i, w := range allWorkloads {
		names[i] = w.name
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// testbed is a built workload ready to run: the load generator's
// configuration (minus timing and seed), a constructor for the checker
// that verifies every reply (built after set-up is measured), and readers
// over the program's public counters.
type testbed struct {
	exec       sim.Runner
	cfg        loadgen.Config
	newChecker func() *checker
	// read gathers the simulated counters from public fields.
	read func() counters
	// verify returns the structural invariants that failed once the engine
	// has quiesced (frame conservation, ledgers).
	verify func() []string
}

// kvRetry gives every KV request a deadline that never fires at the chosen
// rates (p99 is tens of microseconds), which switches loadgen to exact
// disposal: Sent == Completed + Shed + TimedOut + Unresolved.
var kvRetry = loadgen.RetryPolicy{Deadline: 5 * sim.Millisecond}

// rpcRetry is the rpc experiment's client policy; the per-tier fan-in
// timeout sits well inside it.
var rpcRetry = loadgen.RetryPolicy{
	Deadline: 800 * sim.Microsecond, MaxRetries: 1,
	Backoff: 60 * sim.Microsecond, MaxBackoff: 240 * sim.Microsecond,
}

func setupKV(seed uint64, tr *tracer, sys driver.System, mkGen func() workloads.Generator) *testbed {
	s := tr.begin("workloads.gen")
	gen := mkGen()
	recs := gen.Records()
	tr.end(s)

	s = tr.begin("driver.build")
	tb := driver.NewTestbed(nic.MellanoxCX6())
	srv := driver.NewKVServer(tb.Server, sys)
	var rec costmodel.Receipt
	srv.OnReceipt = func(r costmodel.Receipt) { rec.Add(r) }
	client := driver.NewKVClient(tb.Client, sys)
	tr.end(s)

	s = tr.begin("driver.preload")
	srv.Preload(recs)
	tr.end(s)

	return &testbed{
		exec: tb.Eng,
		cfg: loadgen.Config{
			Eng: tb.Eng, EP: tb.Client.UDP, Gen: gen, Client: client,
			Retry: kvRetry, ShedID: driver.ShedID,
		},
		newChecker: func() *checker { return newKVChecker(sys, recs) },
		read: func() counters {
			c := counters{events: tb.Eng.Processed(), now: tb.Eng.Now(), rec: rec, shed: srv.Shed}
			c.addServer(tb.Server)
			c.addEndpoint(tb.Client.UDP, false)
			c.addEndpoint(tb.Server.UDP, true)
			return c
		},
		verify: func() []string {
			var bad []string
			bad = append(bad, conserves("client link", tb.Client.UDP.Port, tb.Server.UDP.Port)...)
			bad = append(bad, conserves("server link", tb.Server.UDP.Port, tb.Client.UDP.Port)...)
			return bad
		},
	}
}

func setupRPC(seed uint64, tr *tracer) *testbed {
	s := tr.begin("workloads.gen")
	gen := constGen{}
	tr.end(s)

	s = tr.begin("driver.build")
	c := rpc.NewChain(rpc.ChainConfig{
		Sys: driver.SysCornflakes, Profile: nic.MellanoxCX6(), Cache: cachesim.DefaultConfig(),
		Depth: 3, Fanout: 2,
		AppCycles: 1500, ReqBytes: 64, FwdBytes: 64, RespBytes: 128,
		CallTimeout: 250 * sim.Microsecond,
	})
	tr.end(s)

	return &testbed{
		exec: c.Exec,
		cfg: loadgen.Config{
			Eng: c.Client.N.Eng, Exec: c.Exec, EP: c.Client.N.UDP, Gen: gen, Client: c.Client,
			Retry: rpcRetry, ShedID: driver.ShedID, ClientID: 1,
		},
		newChecker: newRPCChecker,
		read: func() counters {
			rec, _ := c.HostReceipt()
			k := counters{events: c.Exec.Processed(), now: c.Eng.Now(), rec: rec}
			for _, svc := range c.Services {
				k.addServer(svc.N)
				k.addEndpoint(svc.N.UDP, true)
				k.shed += svc.Shed
				k.childCalls += svc.ChildCalls
				k.lateChild += svc.LateChildReplies
			}
			k.addEndpoint(c.Client.N.UDP, false)
			st := c.Switch.TotalStats()
			k.fabIn, k.fabOut, k.fabEgressDrops = st.InFrames, st.OutFrames, st.EgressDrops
			k.fabContentionNs, k.fabMaxBacklog = st.ContentionNs, st.MaxBacklog
			return k
		},
		verify: func() []string {
			var bad []string
			for i, n := range c.Nodes {
				lp := c.Switch.LinkPort(c.Addrs[i])
				name := fmt.Sprintf("node %d", c.Addrs[i])
				bad = append(bad, conserves(name+" uplink", n.UDP.Port, lp)...)
				bad = append(bad, conserves(name+" downlink", lp, n.UDP.Port)...)
			}
			if loss := c.Ledger().SilentLoss(0, 0); loss != 0 {
				bad = append(bad, fmt.Sprintf("rack ledger: silent loss %d frames", loss))
			}
			if !c.ChildLedgersExact() {
				bad = append(bad, "rpc child ledgers not exact")
			}
			return bad
		},
	}
}

// conserves checks one direction of a link: every frame tx posted is
// delivered, dropped on the wire, or discarded by rx on an FCS error. No
// interceptor is installed, so nothing is duplicated.
func conserves(name string, tx, rx *nic.Port) []string {
	if tx.Interceptor != nil {
		return []string{name + ": unexpected frame interceptor"}
	}
	if tx.TxFrames != tx.DeliveredFrames+tx.DroppedFrames+rx.RxFCSErrors {
		return []string{fmt.Sprintf("%s: posted %d != delivered %d + dropped %d + fcs %d",
			name, tx.TxFrames, tx.DeliveredFrames, tx.DroppedFrames, rx.RxFCSErrors)}
	}
	return nil
}

// constGen issues one fixed request: the rpc client ignores request
// content, since what is under test is the call graph.
type constGen struct{}

func (constGen) Name() string                      { return "rpc-const" }
func (constGen) Records() []workloads.KV           { return nil }
func (constGen) Next(*rand.Rand) workloads.Request { return workloads.Request{Op: workloads.OpGet} }

// counters are the simulated counters read from the program's public
// fields. Server-side fields cover every serving node; nic and netstack
// fields cover every endpoint including the client.
type counters struct {
	events uint64
	now    sim.Time
	cores  int // serving cores

	cacheAcc, l1Hits, l3Misses    uint64
	memAllocs, recHits, recMiss   uint64
	pinnedBytes                   int64
	busy, queueWait               sim.Time
	jobs                          uint64
	rec                           costmodel.Receipt
	shed                          uint64
	frames, doorbells, dropped    uint64
	srvFrames, srvSG              uint64
	zcEntries, rxDrops            uint64
	fabIn, fabOut, fabEgressDrops uint64
	fabContentionNs               float64
	fabMaxBacklog                 int
	childCalls, lateChild         uint64
}

func (c *counters) addServer(n *driver.Node) {
	st := n.Cache.Stats()
	c.cacheAcc += st[0].Hits + st[0].Misses
	c.l1Hits += st[0].Hits
	c.l3Misses += st[2].Misses
	ms := n.Alloc.Stats()
	c.memAllocs += ms.Allocs
	c.recHits += ms.RecoverHits
	c.recMiss += ms.RecoverMisses
	c.pinnedBytes += ms.BytesPinned
	c.busy += n.Core.BusyTime
	c.queueWait += n.Core.QueueWait
	c.jobs += n.Core.JobsDone
	c.cores++
}

func (c *counters) addEndpoint(u *netstack.UDP, server bool) {
	p := u.Port
	c.frames += p.TxFrames
	c.doorbells += p.TxDoorbells
	c.dropped += p.DroppedFrames
	if server {
		c.srvFrames += p.TxFrames
		c.srvSG += p.TxSGEntries
	}
	c.zcEntries += u.TxZCEntries
	c.rxDrops += u.RxNoMem + u.RxDownDrops
}

// since returns the counters accumulated after base. Gauges (pinned
// bytes, the switch's deepest backlog) keep their final value.
func (c counters) since(base counters) counters {
	d := c
	d.events -= base.events
	d.now -= base.now
	d.cacheAcc -= base.cacheAcc
	d.l1Hits -= base.l1Hits
	d.l3Misses -= base.l3Misses
	d.memAllocs -= base.memAllocs
	d.recHits -= base.recHits
	d.recMiss -= base.recMiss
	d.busy -= base.busy
	d.queueWait -= base.queueWait
	d.jobs -= base.jobs
	for i := range d.rec.Cycles {
		d.rec.Cycles[i] -= base.rec.Cycles[i]
	}
	d.shed -= base.shed
	d.frames -= base.frames
	d.doorbells -= base.doorbells
	d.dropped -= base.dropped
	d.srvFrames -= base.srvFrames
	d.srvSG -= base.srvSG
	d.zcEntries -= base.zcEntries
	d.rxDrops -= base.rxDrops
	d.fabIn -= base.fabIn
	d.fabOut -= base.fabOut
	d.fabEgressDrops -= base.fabEgressDrops
	d.fabContentionNs -= base.fabContentionNs
	d.childCalls -= base.childCalls
	d.lateChild -= base.lateChild
	return d
}
