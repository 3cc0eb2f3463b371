// Command perfbench measures the simulator end to end and layer by layer.
//
//	go run . --workload kv-twitter --seed 1 --seconds 30 --trace 0
//
// One run builds a workload from the public APIs of driver, rpc, loadgen
// and workloads, and repeats rounds of set-up plus a fixed simulated run
// until --seconds of host time have passed. Every round of one seed
// simulates exactly the same thing, so simulated results must agree
// across rounds; host metrics are the median over rounds. --trace 0
// reports the end-to-end metrics; --trace 1 adds timing decorators and a
// phase-labelled CPU profile and reports the per-layer metrics. The last
// line of standard output is a JSON object with the result.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"slices"
	"strings"
	"time"

	"cornflakes/internal/costmodel"
	"cornflakes/internal/loadgen"
	"cornflakes/internal/sim"
)

// minCompleted is the fewest measured completions a round may have: a
// p99.9 needs ten samples beyond it.
const minCompleted = 10_000

func main() {
	var (
		wlName  = flag.String("workload", "", "workload to run: kv-twitter, kv-ycsb-copy or rpc-fanout")
		seed    = flag.Uint64("seed", 1, "seed for every generated input")
		seconds = flag.Float64("seconds", 10, "host seconds to keep repeating rounds")
		traceOn = flag.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
		commit  = flag.String("commit", "unknown", "commit of the code under test, recorded with the result")
		outDir  = flag.String("out", "", "directory for the traced run's span and profile files (none if empty)")
	)
	flag.Parse()
	w, err := findWorkload(*wlName)
	if err != nil {
		fatal(err)
	}
	if *traceOn != 0 && *traceOn != 1 {
		fatal(fmt.Errorf("--trace must be 0 or 1, not %d", *traceOn))
	}
	host, _ := json.Marshal(map[string]any{
		"workload": w.name, "seed": *seed, "trace": *traceOn,
		"host_cores": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"go": runtime.Version(), "commit": *commit,
	})
	fmt.Printf("host %s\n", host)

	budget := time.Duration(*seconds * float64(time.Second))
	var r result
	if *traceOn == 0 {
		r = runEndToEnd(w, *seed, budget)
	} else {
		r, err = runTraced(w, *seed, budget, *outDir)
		if err != nil {
			fatal(err)
		}
	}
	for _, p := range r.problems {
		fmt.Printf("CHECK FAILED: %s\n", p)
	}
	fmt.Printf("digest %s seed=%d %016x\n", w.name, *seed, r.digest)
	fmt.Printf("failed_frac %.6g (%d of %d)\n", float64(r.failed)/float64(max(r.attempted, 1)), r.failed, r.attempted)

	out := map[string]any{
		"correct":   len(r.problems) == 0,
		"attempted": r.attempted,
		"failed":    r.failed,
		"metrics":   r.metrics,
	}
	b, err := json.Marshal(out)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(b))
	if len(r.problems) > 0 {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(2)
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what one invocation reports.
type result struct {
	metrics   map[string]value
	attempted uint64
	failed    uint64
	problems  []string
	digest    uint64
}

// round is one set-up plus one simulated run.
type round struct {
	setupS, genS, buildS, preloadS, runS float64
	heapLiveMB                           float64
	mallocs, allocBytes                  uint64
	gcCycles                             uint64
	gcCPUShare                           float64
	res                                  loadgen.Result
	served                               uint64 // requests answered over the whole run
	failed                               uint64
	problems                             []string
	sub                                  uint64 // the round's seed
	lat                                  []sim.Time
	sim                                  []named // simulated metrics and counters
	digest                               uint64
	// Per-request span means (traced rounds only), in ns.
	buildNs, parseNs, nextNs float64
}

type named struct {
	name string
	v    float64
}

// runRound sets the workload up and runs it once. With timed set, the
// timing decorators wrap what loadgen is handed.
func runRound(w workload, seed uint64, tr *tracer, timed bool) *round {
	r := &round{sub: seed}
	heapBefore := liveHeap()
	tr.resetTotals()
	var tb *testbed
	pprof.Do(context.Background(), pprof.Labels("phase", "setup"), func(context.Context) {
		tb = w.setup(seed, tr)
	})
	r.genS, r.buildS, r.preloadS = tr.latest("workloads.gen"), tr.latest("driver.build"), tr.latest("driver.preload")
	r.setupS = r.genS + r.buildS + r.preloadS
	r.heapLiveMB = float64(liveHeap()-heapBefore) / 1e6

	cfg := tb.cfg
	cfg.RatePerS, cfg.Warmup, cfg.Measure, cfg.Seed = w.rate, w.warmup, w.measure, seed
	var checkTracer *tracer
	if timed {
		cfg.Gen = timedGen{cfg.Gen, tr}
		cfg.Client = timedClient{cfg.Client, tr}
		cfg.EP = timedEndpoint{cfg.EP, tr}
		checkTracer = tr
	}
	chk := tb.newChecker()
	chk.start(cfg.Eng, w.warmup, checkTracer)
	cfg.Gen = chk.wrapGen(cfg.Gen)
	cfg.Client = chk.wrapClient(cfg.Client)

	base := tb.read()
	m0 := readRuntime()
	pprof.Do(context.Background(), pprof.Labels("phase", "run"), func(context.Context) {
		s := tr.begin("loadgen.run")
		r.res = loadgen.Run(cfg)
		tb.exec.Run() // quiesce: fan-in timers, stragglers
		tr.end(s)
	})
	r.runS = tr.latest("loadgen.run")
	m1 := readRuntime()
	r.mallocs, r.allocBytes, r.gcCycles = m1.mallocs-m0.mallocs, m1.bytes-m0.bytes, m1.gcs-m0.gcs
	if busy := (m1.total - m1.idle) - (m0.total - m0.idle); busy > 0 {
		r.gcCPUShare = (m1.gc - m0.gc) / busy
	}
	if timed {
		r.buildNs, r.parseNs, r.nextNs = tr.mean("loadgen.client_build"), tr.mean("loadgen.client_parse"), tr.mean("workloads.next")
	}

	c := tb.read().since(base)
	for _, req := range chk.reqs {
		if req.done {
			r.served++
		}
	}
	r.check(tb, chk)
	r.lat = chk.lat
	slices.Sort(r.lat)
	r.sim = simMetrics(r.res, c, r.lat, r.served)
	r.digest = digest(r.sim)
	return r
}

// check applies the output checks and counts failed requests.
func (r *round) check(tb *testbed, chk *checker) {
	res := r.res
	r.failed = res.TimedOut + res.Shed + res.BadResponses + res.Unresolved + uint64(len(chk.wrong))
	bad := func(format string, args ...any) { r.problems = append(r.problems, fmt.Sprintf(format, args...)) }
	if res.BadResponses != 0 {
		bad("loadgen counted %d bad responses", res.BadResponses)
	}
	if res.Sent != res.Completed+res.Shed+res.TimedOut+res.Unresolved {
		bad("disposal not exact: sent %d != completed %d + shed %d + timed out %d + unresolved %d",
			res.Sent, res.Completed, res.Shed, res.TimedOut, res.Unresolved)
	}
	if res.TimedOut+res.Shed+res.Unresolved != 0 {
		bad("%d timed out, %d shed, %d unresolved", res.TimedOut, res.Shed, res.Unresolved)
	}
	if res.Retries != 0 {
		// A retried flow's latency would be timed from its last attempt.
		bad("%d retries fired", res.Retries)
	}
	if uint64(len(chk.lat)) != res.Completed || res.Latency.Count() != res.Completed {
		bad("latency samples: checker %d, loadgen %d, completed %d", len(chk.lat), res.Latency.Count(), res.Completed)
	}
	if res.Completed < minCompleted {
		bad("only %d measured completions, need %d", res.Completed, minCompleted)
	}
	for i, s := range chk.wrong {
		if i == 5 {
			bad("... %d wrong replies in all", len(chk.wrong))
			break
		}
		bad("%s", s)
	}
	r.problems = append(r.problems, tb.verify()...)
}

// simMetrics derives every simulated metric and per-layer counter of a
// round, in a fixed order. Per-request ratios divide by served, the
// requests answered over the whole run, since the counters cover it all.
func simMetrics(res loadgen.Result, c counters, lat []sim.Time, served uint64) []named {
	per := func(x float64, n uint64) float64 {
		if n == 0 {
			return 0
		}
		return x / float64(n)
	}
	cy := c.rec.Cycles
	return []named{
		{"sim_goodput_rps", res.AchievedRps},
		{"sim_p50_us", quantileUs(lat, 0.50)},
		{"sim_p999_us", quantileUs(lat, 0.999)},
		{"sim_server_cy_per_req", per(c.rec.Total(), served)},

		{"loadgen.sent", float64(res.Sent)},
		{"loadgen.completed", float64(res.Completed)},
		{"loadgen.served", float64(served)},
		{"loadgen.retries", float64(res.Retries)},
		{"loadgen.timeouts", float64(res.TimedOut)},
		{"loadgen.late_responses", float64(res.LateResponses)},
		{"sim.events", float64(c.events)},
		{"sim.events_per_req", per(float64(c.events), served)},
		{"sim.server_util", per(float64(c.busy), uint64(c.cores)*uint64(c.now))},
		{"sim.queue_wait_ns", per(c.queueWait.Nanoseconds(), c.jobs)},
		{"cachesim.accesses_per_req", per(float64(c.cacheAcc), served)},
		{"cachesim.l1_hit_ratio", per(float64(c.l1Hits), c.cacheAcc)},
		{"cachesim.l3_misses_per_req", per(float64(c.l3Misses), served)},
		{"mem.allocs_per_req", per(float64(c.memAllocs), served)},
		{"mem.recover_per_req", per(float64(c.recHits+c.recMiss), served)},
		{"mem.recover_hit_ratio", per(float64(c.recHits), c.recHits+c.recMiss)},
		{"mem.pinned_mb", float64(c.pinnedBytes) / 1e6},
		{"costmodel.rx_cy_per_req", per(cy[costmodel.CatRx], served)},
		{"costmodel.deserialize_cy_per_req", per(cy[costmodel.CatDeserialize], served)},
		{"costmodel.app_cy_per_req", per(cy[costmodel.CatApp], served)},
		{"costmodel.serialize_cy_per_req", per(cy[costmodel.CatSerialize], served)},
		{"costmodel.tx_cy_per_req", per(cy[costmodel.CatTx], served)},
		{"nic.frames_per_req", per(float64(c.frames), served)},
		{"nic.doorbells_per_frame", per(float64(c.doorbells), c.frames)},
		{"nic.dropped_frames", float64(c.dropped)},
		{"nic.sg_entries_per_frame", per(float64(c.srvSG), c.srvFrames)},
		{"netstack.zc_entries_per_req", per(float64(c.zcEntries), served)},
		{"netstack.rx_drops", float64(c.rxDrops)},
		{"fabric.frames_per_req", per(float64(c.fabIn), served)},
		{"fabric.contention_ns_per_frame", per(c.fabContentionNs, c.fabOut)},
		{"fabric.egress_drops", float64(c.fabEgressDrops)},
		{"fabric.max_backlog", float64(c.fabMaxBacklog)},
		{"rpc.child_calls_per_req", per(float64(c.childCalls), served)},
		{"rpc.late_child_replies", float64(c.lateChild)},
		{"driver.shed", float64(c.shed)},
	}
}

// liveHeap returns the bytes of live Go heap after a forced collection.
func liveHeap() int64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

type runtimeSample struct {
	mallocs, bytes, gcs uint64
	gc, total, idle     float64 // cpu-seconds
}

var runtimeMetricNames = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
}

func readRuntime() runtimeSample {
	s := make([]metrics.Sample, len(runtimeMetricNames))
	for i, n := range runtimeMetricNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return runtimeSample{
		mallocs: s[0].Value.Uint64(), bytes: s[1].Value.Uint64(), gcs: s[2].Value.Uint64(),
		gc: s[3].Value.Float64(), total: s[4].Value.Float64(), idle: s[5].Value.Float64(),
	}
}

// subRuns is how many distinct sub-seeds a run cycles through. The
// simulated metrics pool the first round of each, so a p99.9 rests on
// several independent trajectories rather than one; later rounds repeat
// earlier sub-seeds and must reproduce their digests.
const subRuns = 8

// subSeed derives round k's seed from the run's seed (splitmix64).
func subSeed(seed uint64, k int) uint64 {
	z := seed + uint64(k+1)*0x9E3779B97F4A7C15
	z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
	z = (z ^ z>>27) * 0x94D049BB133111EB
	return z ^ z>>31
}

// repeat runs rounds, cycling through the sub-seeds of seed, until budget
// has passed and every sub-seed has run once.
func repeat(seed uint64, budget time.Duration, run func(sub uint64) *round) []*round {
	start := time.Now()
	var rounds []*round
	for len(rounds) < subRuns || time.Since(start) < budget {
		r := run(subSeed(seed, len(rounds)%subRuns))
		if len(rounds) >= subRuns {
			r.lat = nil // only the first round of each sub-seed is pooled
		}
		fmt.Printf("round %d: setup %.4f s, run %.4f s, served %d, %.0f req/host-s, digest %016x\n",
			len(rounds)+1, r.setupS, r.runS, r.served, float64(r.served)/r.runS, r.digest)
		rounds = append(rounds, r)
	}
	return rounds
}

// summarize folds the rounds' checks and failure counts into a result,
// requires every round to reproduce the digest of the first round with the
// same sub-seed, and pools the simulated metrics of the first subRuns
// rounds.
func summarize(rounds []*round) (result, []named) {
	res := result{metrics: map[string]value{}}
	first := map[uint64]*round{}
	for i, r := range rounds {
		res.attempted += r.res.Sent
		res.failed += r.failed
		for _, p := range r.problems {
			res.problems = append(res.problems, fmt.Sprintf("round %d: %s", i+1, p))
		}
		if f, ok := first[r.sub]; !ok {
			first[r.sub] = r
		} else if r.digest != f.digest {
			res.problems = append(res.problems, fmt.Sprintf("round %d: simulated digest %016x differs from %016x of an earlier round with the same seed", i+1, r.digest, f.digest))
		}
	}
	pool := rounds[:subRuns]
	pooled := make([]named, len(pool[0].sim))
	var lat []sim.Time
	for _, r := range pool {
		for i, n := range r.sim {
			pooled[i].name = n.name
			pooled[i].v += n.v / float64(len(pool))
		}
		lat = append(lat, r.lat...)
	}
	slices.Sort(lat)
	for i := range pooled {
		switch pooled[i].name {
		case "sim_p50_us":
			pooled[i].v = quantileUs(lat, 0.50)
		case "sim_p999_us":
			pooled[i].v = quantileUs(lat, 0.999)
		}
	}
	res.digest = digest(pooled)
	return res, pooled
}

// quantileUs returns the nearest-rank p-quantile of sorted, in µs.
func quantileUs(sorted []sim.Time, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	return sorted[max(i, 0)].Microseconds()
}

func digest(metrics []named) uint64 {
	h := fnv.New64a()
	for _, n := range metrics {
		fmt.Fprintf(h, "%s=%v\n", n.name, n.v)
	}
	return h.Sum64()
}

func simValue(metrics []named, name string) float64 {
	for _, n := range metrics {
		if n.name == name {
			return n.v
		}
	}
	panic("perfbench: no simulated metric " + name)
}

func median(rounds []*round, f func(r *round) float64) float64 {
	v := make([]float64, len(rounds))
	for i, r := range rounds {
		v[i] = f(r)
	}
	slices.Sort(v)
	if n := len(v); n%2 == 1 {
		return v[n/2]
	} else {
		return (v[n/2-1] + v[n/2]) / 2
	}
}

func runEndToEnd(w workload, seed uint64, budget time.Duration) result {
	tr := newTracer()
	rounds := repeat(seed, budget, func(sub uint64) *round { return runRound(w, sub, tr, false) })
	res, pooled := summarize(rounds)
	host := map[string]float64{
		"setup_s":             median(rounds, func(r *round) float64 { return r.setupS }),
		"req_per_host_s":      median(rounds, func(r *round) float64 { return float64(r.served) / r.runS }),
		"host_allocs_per_req": median(rounds, func(r *round) float64 { return float64(r.mallocs) / float64(r.served) }),
		"host_bytes_per_req":  median(rounds, func(r *round) float64 { return float64(r.allocBytes) / float64(r.served) }),
		"heap_live_mb":        median(rounds, func(r *round) float64 { return r.heapLiveMB }),
	}
	for _, m := range endToEnd {
		v, ok := host[m.name]
		if !ok {
			v = simValue(pooled, m.name)
		}
		res.metrics[m.name] = value{v, m.unit}
	}
	return res
}

// runTraced first runs untraced rounds for a third of the budget, as the
// baseline of the tracing overhead, then traced rounds under a CPU profile
// labelled by phase.
func runTraced(w workload, seed uint64, budget time.Duration, outDir string) (result, error) {
	tr := newTracer()
	plain := repeat(seed, budget/3, func(sub uint64) *round { return runRound(w, sub, tr, false) })
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return result{}, fmt.Errorf("cpu profile: %w", err)
	}
	totals := map[string]*spanTotal{}
	traced := repeat(seed, budget-budget/3, func(sub uint64) *round {
		r := runRound(w, sub, tr, true)
		for name, t := range tr.agg {
			a := totals[name]
			if a == nil {
				a = &spanTotal{}
				totals[name] = a
			}
			a.Count += t.Count
			a.Total += t.Total
			a.Self += t.Self
			a.Latest = t.Latest
		}
		return r
	})
	pprof.StopCPUProfile()

	res, pooled := summarize(append(plain, traced...))
	p, err := parseProfile(prof.Bytes())
	if err != nil {
		return result{}, err
	}
	layers, samples := p.foldByLayer("phase", "run")
	if samples == 0 {
		res.problems = append(res.problems, "cpu profile has no run-phase samples")
	}
	if outDir != "" {
		base := filepath.Join(outDir, fmt.Sprintf("trace-%s-seed%d", w.name, seed))
		if err := tr.write(base+".json", totals); err != nil {
			return result{}, err
		}
		if err := os.WriteFile(base+".pprof", prof.Bytes(), 0o644); err != nil {
			return result{}, err
		}
		fmt.Printf("spans: %s.json, profile: %s.pprof\n", base, base)
	}

	vals := map[string]float64{
		"sim.host_ns_per_event":   median(traced, func(r *round) float64 { return r.runS * 1e9 / simValue(r.sim, "sim.events") }),
		"driver.build_s":          median(traced, func(r *round) float64 { return r.buildS }),
		"driver.preload_s":        median(traced, func(r *round) float64 { return r.preloadS }),
		"workloads.gen_s":         median(traced, func(r *round) float64 { return r.genS }),
		"loadgen.run_s":           median(traced, func(r *round) float64 { return r.runS }),
		"loadgen.client_build_ns": median(traced, func(r *round) float64 { return r.buildNs }),
		"loadgen.client_parse_ns": median(traced, func(r *round) float64 { return r.parseNs }),
		"workloads.next_ns":       median(traced, func(r *round) float64 { return r.nextNs }),
		"runtime.gc_cycles":       median(traced, func(r *round) float64 { return float64(r.gcCycles) }),
		"runtime.gc_cpu_share":    median(traced, func(r *round) float64 { return r.gcCPUShare }),
		"bench.trace_overhead_frac": median(traced, func(r *round) float64 { return r.runS }) /
			median(plain, func(r *round) float64 { return r.runS }),
	}
	for _, l := range profiledLayers {
		vals[l+".self_share"] = float64(layers[l]) / float64(max(samples, 1))
	}
	for _, n := range pooled {
		if _, ok := vals[n.name]; !ok {
			vals[n.name] = n.v
		}
	}
	fmt.Printf("\nper-layer metrics, %s (traced rounds: %d, run-phase profile samples: %d)\n", w.name, len(traced), samples)
	fmt.Printf("%-34s %14s %-9s %-6s %s\n", "metric", "value", "unit", "role", "predicted most / least -> moves")
	for _, m := range perLayer {
		v, ok := vals[m.name]
		if !ok {
			return result{}, fmt.Errorf("no value for per-layer metric %s", m.name)
		}
		res.metrics[m.name] = value{v, m.unit}
		fmt.Printf("%-34s %14.6g %-9s %-6s %s / %s -> %s\n", m.name, v, m.unit, role(w.name, m), m.most, m.least, m.moves)
	}
	var other []string
	for l, n := range layers {
		if !slices.Contains(profiledLayers, l) {
			other = append(other, fmt.Sprintf("%s %.3f", l, float64(n)/float64(max(samples, 1))))
		}
	}
	slices.Sort(other)
	fmt.Printf("other run-phase shares: %s\n\n", strings.Join(other, ", "))
	return res, nil
}

// role says whether the workload is the one predicted to load a layer
// metric most or least.
func role(wl string, m metricDef) string {
	has := func(s string) bool { return s == allWl || strings.Contains(s, wl) }
	switch {
	case has(m.most) && has(m.least):
		return "all"
	case has(m.most):
		return "most"
	case has(m.least):
		return "least"
	}
	return "-"
}
