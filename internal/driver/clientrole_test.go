package driver

import (
	"reflect"
	"strings"
	"testing"

	"cornflakes/internal/cachesim"
	"cornflakes/internal/costmodel"
	"cornflakes/internal/loadgen"
	"cornflakes/internal/mem"
	"cornflakes/internal/nic"
	"cornflakes/internal/redis"
	"cornflakes/internal/sim"
	"cornflakes/internal/workloads"
)

// modelClient gives a client node the default hierarchy every load
// generator carried before client nodes existed, under its meter too.
func modelClient(n *Node) {
	n.Cache = cachesim.New(cachesim.DefaultConfig())
	n.Meter.Cache = n.Cache
}

// kvOutcome is everything a KV run reports about its server, plus the
// client allocator that holds the NIC's DMA buffers.
type kvOutcome struct {
	Res         loadgen.Result
	HostRec     costmodel.Receipt
	Cache       [3]cachesim.LevelStats
	ServerAlloc mem.Stats
	ClientAlloc mem.Stats
}

// A client node changes nothing the server sees: a KV run with a modelled
// client and one with a client node agree on the server's receipts, cache
// and allocator counters, and on the load generator's result.
func TestClientRoleKVDifferential(t *testing.T) {
	gen := workloads.NewTwitter(2000, 11)
	run := func(modelled bool) (kvOutcome, float64) {
		tb := NewTestbed(nic.MellanoxCX6())
		if modelled {
			modelClient(tb.Client)
		}
		srv := NewKVServer(tb.Server, SysCornflakes)
		srv.Preload(gen.Records())
		res := loadgen.Run(loadgen.Config{
			Eng: tb.Eng, EP: tb.Client.UDP, Gen: gen, Client: NewKVClient(tb.Client, SysCornflakes),
			RatePerS: 300_000, Warmup: 200 * sim.Microsecond, Measure: 2 * sim.Millisecond, Seed: 3,
			Retry: loadgen.RetryPolicy{Deadline: 5 * sim.Millisecond}, ShedID: ShedID,
		})
		return kvOutcome{res, srv.HostRec, tb.Server.Cache.Stats(), tb.Server.Alloc.Stats(), tb.Client.Alloc.Stats()},
			tb.Client.Meter.Drain()
	}
	modelled, mcy := run(true)
	role, rcy := run(false)
	if modelled.Res.Completed == 0 {
		t.Fatal("nothing completed")
	}
	if mcy <= rcy {
		t.Fatalf("modelled client charged %.0f cycles, client node %.0f: the modelled client paid no memory cost", mcy, rcy)
	}
	if !reflect.DeepEqual(modelled, role) {
		t.Fatalf("server-side outcome differs:\nmodelled client %+v\nclient node     %+v", modelled, role)
	}
}

// A server is a modelled machine: building one on a client node panics at
// construction instead of failing mid-run.
func TestServerOnClientNodePanics(t *testing.T) {
	for _, tc := range []struct {
		name  string
		build func(n *Node)
	}{
		{"KVServer", func(n *Node) { NewKVServer(n, SysCornflakes) }},
		{"EchoServer", func(n *Node) { NewEchoServer(n, EchoOneCopy, SysCornflakes, 0, 0) }},
		{"RedisServer", func(n *Node) { NewRedisServer(n, redis.ModeRESP) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				r := recover()
				if msg, _ := r.(string); !strings.Contains(msg, "client node") {
					t.Fatalf("recovered %v, want the client-node panic", r)
				}
			}()
			tc.build(NewTestbed(nic.MellanoxCX6()).Client)
		})
	}
}
