package experiments

import (
	"testing"

	"cornflakes/internal/cachesim"
	"cornflakes/internal/driver"
	"cornflakes/internal/fabric"
	"cornflakes/internal/nic"
	"cornflakes/internal/rpc"
)

// Every testbed builds its load generators as client nodes: no cache
// hierarchy under the node or its meter. Their servers stay modelled.
func TestClientBuildersMakeClientNodes(t *testing.T) {
	prof := nic.MellanoxCX6()
	for _, tc := range []struct {
		name string
		// build returns the client nodes and the server nodes.
		build func() (clients, servers []*driver.Node)
	}{
		{"NewTestbed", func() ([]*driver.Node, []*driver.Node) {
			tb := driver.NewTestbed(prof)
			return []*driver.Node{tb.Client}, []*driver.Node{tb.Server}
		}},
		{"NewTestbedCfg", func() ([]*driver.Node, []*driver.Node) {
			tb := driver.NewTestbedCfg(prof, expCacheConfig())
			return []*driver.Node{tb.Client}, []*driver.Node{tb.Server}
		}},
		{"NewTCPTestbed", func() ([]*driver.Node, []*driver.Node) {
			tb := driver.NewTCPTestbed(prof)
			return []*driver.Node{tb.Client}, []*driver.Node{tb.Server}
		}},
		{"ClusterTestbed", func() ([]*driver.Node, []*driver.Node) {
			c := driver.NewClusterTestbed(2, 3, driver.SysCornflakes, prof, expCacheConfig(), fabric.Config{})
			var srv []*driver.Node
			for _, s := range c.Servers {
				srv = append(srv, s.N)
			}
			return c.Clients, srv
		}},
		{"rpc.NewChain", func() ([]*driver.Node, []*driver.Node) {
			c := rpc.NewChain(rpc.ChainConfig{
				Sys: driver.SysCornflakes, Profile: prof, Cache: cachesim.DefaultConfig(),
				Depth: 2, Fanout: 1,
			})
			var srv []*driver.Node
			for _, s := range c.Services {
				srv = append(srv, s.N)
			}
			return []*driver.Node{c.Client.N}, srv
		}},
		{"ext-multicore", func() ([]*driver.Node, []*driver.Node) {
			_, client, srv := multicoreBed(2)
			return []*driver.Node{client}, []*driver.Node{srv.Cores[0].N, srv.Cores[1].N}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			clients, servers := tc.build()
			if len(clients) == 0 || len(servers) == 0 {
				t.Fatalf("%d clients, %d servers", len(clients), len(servers))
			}
			for i, n := range clients {
				if n.Cache != nil || n.Meter.Cache != nil {
					t.Errorf("client %d has a cache hierarchy", i)
				}
			}
			for i, n := range servers {
				if n.Cache == nil || n.Meter.Cache != n.Cache {
					t.Errorf("server %d is not a modelled node", i)
				}
			}
		})
	}
}
