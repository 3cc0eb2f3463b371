package rpc

import (
	"reflect"
	"strings"
	"testing"

	"cornflakes/internal/cachesim"
	"cornflakes/internal/costmodel"
	"cornflakes/internal/driver"
	"cornflakes/internal/loadgen"
	"cornflakes/internal/mem"
	"cornflakes/internal/sim"
)

// chainOutcome is everything a chain run reports about its tiers, plus the
// client allocator that holds the NIC's DMA buffers.
type chainOutcome struct {
	Res         loadgen.Result
	HostRec     costmodel.Receipt
	Handled     uint64
	Caches      [][3]cachesim.LevelStats
	Allocs      []mem.Stats
	ClientAlloc mem.Stats
}

// A client node changes nothing the tiers see: a depth-2 chain run with a
// modelled client and one with a client node agree on every tier's
// receipts, cache and allocator counters, and on the generator's result.
func TestClientRoleChainDifferential(t *testing.T) {
	run := func(modelled bool) (chainOutcome, float64) {
		c := NewChain(chainCfg(driver.SysCornflakes, 2, 0))
		if modelled {
			n := c.Client.N
			n.Cache = cachesim.New(cachesim.DefaultConfig())
			n.Meter.Cache = n.Cache
		}
		res := runChain(t, c, 150_000, loadgen.RetryPolicy{
			Deadline: 800 * sim.Microsecond, MaxRetries: 1, Backoff: 60 * sim.Microsecond,
		}, loadgen.HedgePolicy{})
		out := chainOutcome{Res: res, ClientAlloc: c.Client.N.Alloc.Stats()}
		out.HostRec, out.Handled = c.HostReceipt()
		for _, s := range c.Services {
			out.Caches = append(out.Caches, s.N.Cache.Stats())
			out.Allocs = append(out.Allocs, s.N.Alloc.Stats())
		}
		return out, c.Client.N.Meter.Drain()
	}
	modelled, mcy := run(true)
	role, rcy := run(false)
	if modelled.Res.Completed == 0 || modelled.Handled == 0 {
		t.Fatal("nothing completed")
	}
	if mcy <= rcy {
		t.Fatalf("modelled client charged %.0f cycles, client node %.0f: the modelled client paid no memory cost", mcy, rcy)
	}
	if !reflect.DeepEqual(modelled, role) {
		t.Fatalf("tier-side outcome differs:\nmodelled client %+v\nclient node     %+v", modelled, role)
	}
}

// A service is a server: building one on the chain's client node panics.
func TestServiceOnClientNodePanics(t *testing.T) {
	c := NewChain(chainCfg(driver.SysCornflakes, 1, 0))
	defer func() {
		r := recover()
		if msg, _ := r.(string); !strings.Contains(msg, "client node") {
			t.Fatalf("recovered %v, want the client-node panic", r)
		}
	}()
	NewService(c.Client.N, driver.SysCornflakes, "bad", 9, 99)
}
