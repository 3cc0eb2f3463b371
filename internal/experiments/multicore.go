package experiments

import (
	"fmt"

	"cornflakes/internal/driver"
	"cornflakes/internal/loadgen"
	"cornflakes/internal/nic"
	"cornflakes/internal/sim"
	"cornflakes/internal/workloads"
)

// ExtMulticore is the "full multicore implementation" the paper leaves to
// future work (§6.6): the complete end-to-end KV application — not just
// the copy/SG microbenchmark of Figure 13 — running on 1–8 cores with a
// key-sharded store, private L1/L2 per core, a shared L3 and one shared
// NIC port. It verifies the paper's extrapolation claim: end-to-end
// Cornflakes throughput scales near-linearly until the NIC binds.
func ExtMulticore(sc Scale) *Report {
	r := &Report{
		ID:     "ext-multicore",
		Title:  "Extension (§6.6): end-to-end multicore KV server (Twitter trace)",
		Header: []string{"cores", "max krps", "scaling"},
	}
	measure := func(nCores int) float64 {
		gen := workloads.NewTwitter(8*sc.StoreKeys, 190)
		run := func(rate float64) (loadgen.Result, float64) {
			eng, clientNode, srv := multicoreBed(nCores)
			srv.Preload(gen.Records())
			res := loadgen.Run(loadgen.Config{
				Eng: eng, EP: clientNode.UDP,
				Gen: gen,
				Client: &driver.MultiKVClient{
					Inner:  driver.NewKVClient(clientNode, driver.SysCornflakes),
					NCores: nCores,
				},
				RatePerS: rate,
				Warmup:   sim.Time(sc.WarmupMs) * sim.Millisecond,
				Measure:  sim.Time(sc.MeasureMs) * sim.Millisecond,
				Seed:     191,
			})
			return res, srv.Utilization()
		}
		// Capacity via the utilization method, generalized to K cores.
		rate := 150_000.0 * float64(nCores)
		best := 0.0
		for i := 0; i < 6; i++ {
			res, u := run(rate)
			if res.Completed == 0 || u <= 0 {
				rate /= 2
				continue
			}
			if u > 0.80 {
				rate *= 0.3
				continue
			}
			capRps := res.AchievedRps / u
			best = capRps
			if u >= 0.25 {
				break
			}
			rate = 0.5 * capRps
		}
		return best
	}

	cores := []int{1, 2, 4}
	if sc.Cores >= 8 {
		cores = append(cores, 8)
	}
	perCore := make([]float64, len(cores))
	forEach(sc.workers(), len(cores), func(i int) {
		perCore[i] = measure(cores[i])
	})
	caps := map[int]float64{}
	for i, k := range cores {
		caps[k] = perCore[i]
	}
	for _, k := range cores {
		r.Rows = append(r.Rows, []string{
			fmt.Sprintf("%d", k), f1(caps[k] / 1000),
			fmt.Sprintf("x%.2f", caps[k]/caps[1]),
		})
	}
	r.AddCheck("end-to-end throughput scales near-linearly to 4 cores (paper's §6.6 extrapolation)",
		caps[4] > 3.2*caps[1],
		"1 core %.0f, 4 cores %.0f rps (x%.2f)", caps[1], caps[4], caps[4]/caps[1])
	r.AddCheck("2-core step is clean",
		caps[2] > 1.7*caps[1],
		"x%.2f", caps[2]/caps[1])
	r.Notes = append(r.Notes,
		"key-sharded stores, private L1/L2, shared L3, one shared 100Gbps port",
		"the paper's §6.6 microbenchmark scales linearly; this verifies the same for the full application")
	return r
}

// multicoreBed builds the ext-multicore topology on a fresh engine: a
// client node and an nCores Cornflakes server joined by one link.
func multicoreBed(nCores int) (*sim.Engine, *driver.Node, *driver.MultiKVServer) {
	eng := sim.NewEngine()
	prof := nic.MellanoxCX6()
	pc, ps := nic.Link(eng, prof, prof, 1500*sim.Nanosecond)
	client := driver.NewClientNode(eng, pc, false)
	return eng, client, driver.NewMultiKVServer(eng, ps, nCores, driver.SysCornflakes, expCacheConfig())
}
