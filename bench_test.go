// Benchmark harness: one testing.B benchmark per table and figure in the
// paper's evaluation (each regenerates the result at Quick scale and fails
// if a shape check breaks), plus micro-benchmarks of the serialization
// library itself.
//
// Run everything with:
//
//	go test -bench=. -benchmem
//
// Regenerate a single figure's data with more detail via:
//
//	go run ./cmd/cf-bench -exp fig7
package cornflakes_test

import (
	"testing"

	"cornflakes/internal/baselines"
	"cornflakes/internal/cachesim"
	"cornflakes/internal/core"
	"cornflakes/internal/costmodel"
	"cornflakes/internal/experiments"
	"cornflakes/internal/mem"
	"cornflakes/internal/msgs"
)

// benchExperiment regenerates one table/figure per iteration and reports
// its wall-clock cost. Shape-check failures fail the benchmark: the
// benchmark suite doubles as the reproduction gate.
//
// Sweep fan-out follows CF_PARALLEL: unset (or 0) uses GOMAXPROCS workers,
// CF_PARALLEL=1 forces the serial path. scripts/bench.sh runs the suite
// both ways and records the ratio in the BENCH_*.json record; the reports
// themselves are byte-identical (see determinism_test.go).
func benchExperiment(b *testing.B, id string) {
	fn, ok := experiments.All()[id]
	if !ok {
		b.Fatalf("unknown experiment %q", id)
	}
	sc := experiments.Quick()
	sc.Workers = experiments.WorkersFromEnv()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rep := fn(sc)
		if fails := rep.Failed(); len(fails) > 0 {
			b.Fatalf("experiment %s shape checks failed: %v", id, fails)
		}
	}
}

func BenchmarkFig2EchoApproaches(b *testing.B)     { benchExperiment(b, "fig2") }
func BenchmarkFig3SGMicrobench(b *testing.B)       { benchExperiment(b, "fig3") }
func BenchmarkFig5ThresholdHeatmap(b *testing.B)   { benchExperiment(b, "fig5") }
func BenchmarkFig6GoogleCurves(b *testing.B)       { benchExperiment(b, "fig6") }
func BenchmarkFig7TwitterKV(b *testing.B)          { benchExperiment(b, "fig7") }
func BenchmarkFig8RedisTwitter(b *testing.B)       { benchExperiment(b, "fig8") }
func BenchmarkFig9TCPEcho(b *testing.B)            { benchExperiment(b, "fig9") }
func BenchmarkFig10NICGenerality(b *testing.B)     { benchExperiment(b, "fig10") }
func BenchmarkFig11CycleBreakdown(b *testing.B)    { benchExperiment(b, "fig11") }
func BenchmarkFig12HybridTwitter(b *testing.B)     { benchExperiment(b, "fig12") }
func BenchmarkFig13MulticoreScaling(b *testing.B)  { benchExperiment(b, "fig13") }
func BenchmarkTable1GoogleThroughput(b *testing.B) { benchExperiment(b, "tab1") }
func BenchmarkTable2CDNThroughput(b *testing.B)    { benchExperiment(b, "tab2") }
func BenchmarkTable3RedisCommands(b *testing.B)    { benchExperiment(b, "tab3") }
func BenchmarkTable4HybridVsSGOnly(b *testing.B)   { benchExperiment(b, "tab4") }
func BenchmarkTable5SerializeAndSend(b *testing.B) { benchExperiment(b, "tab5") }
func BenchmarkExtAdaptiveThreshold(b *testing.B)   { benchExperiment(b, "ext-adaptive") }
func BenchmarkExtArenaAblation(b *testing.B)       { benchExperiment(b, "ext-arena") }
func BenchmarkExtSegmentation(b *testing.B)        { benchExperiment(b, "ext-segment") }
func BenchmarkExtMulticoreKV(b *testing.B)         { benchExperiment(b, "ext-multicore") }
func BenchmarkClusterScaleout(b *testing.B)        { benchExperiment(b, "cluster") }
func BenchmarkChaosFaults(b *testing.B)            { benchExperiment(b, "chaos") }
func BenchmarkRpcChains(b *testing.B)              { benchExperiment(b, "rpc") }

// --- Library micro-benchmarks: real wall-clock cost of this Go
// implementation (the virtual-time substrate measures the modelled system;
// these measure the code itself). ---

func benchCtx() *core.Ctx {
	alloc := mem.NewAllocator()
	arena := mem.NewArena(256 << 10)
	meter := costmodel.NewMeter(costmodel.DefaultCPU(), cachesim.New(cachesim.DefaultConfig()))
	return core.NewCtx(alloc, arena, meter)
}

func BenchmarkCFPtrCopyPath(b *testing.B) {
	ctx := benchCtx()
	data := make([]byte, 128)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctx.NewCFPtr(data)
		if i%1024 == 0 {
			ctx.Arena.Reset()
		}
	}
}

func BenchmarkCFPtrZeroCopyPath(b *testing.B) {
	ctx := benchCtx()
	buf := ctx.Alloc.Alloc(2048)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := ctx.NewCFPtr(buf.Bytes())
		p.Release(ctx.Meter)
	}
}

func buildGetM(ctx *core.Ctx, val []byte) msgs.GetM {
	m := msgs.NewGetM(ctx)
	m.SetId(7)
	m.AppendKeys(ctx.NewCFPtr([]byte("benchmark-key-000000000000000")))
	m.AppendVals(ctx.NewCFPtr(val))
	return m
}

func BenchmarkCornflakesMarshal(b *testing.B) {
	ctx := benchCtx()
	val := ctx.Alloc.Alloc(2048)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := buildGetM(ctx, val.Bytes())
		out := core.Marshal(m.Obj())
		m.Release()
		ctx.Arena.Reset()
		_ = out
	}
}

func BenchmarkCornflakesDeserialize(b *testing.B) {
	ctx := benchCtx()
	val := ctx.Alloc.Alloc(2048)
	m := buildGetM(ctx, val.Bytes())
	data := core.Marshal(m.Obj())
	buf := ctx.Alloc.Alloc(len(data))
	copy(buf.Bytes(), data)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		got, err := ctx.DeserializeBytes(msgs.GetMSchema, buf.Bytes())
		if err != nil {
			b.Fatal(err)
		}
		_ = got.GetBytesElem(2, 0)
	}
}

func benchDoc() *baselines.Doc {
	d := baselines.NewDoc(msgs.GetMSchema)
	d.SetInt(0, 7)
	d.AddBytes(1, []byte("benchmark-key-000000000000000"), 0)
	d.AddBytes(2, make([]byte, 2048), 0)
	return d
}

func BenchmarkProtoliteMarshal(b *testing.B) {
	m := costmodel.NewMeter(costmodel.DefaultCPU(), cachesim.New(cachesim.DefaultConfig()))
	d := benchDoc()
	buf := make([]byte, baselines.ProtoSize(d, m))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		baselines.ProtoMarshal(d, buf, 0, m)
	}
}

func BenchmarkFBLiteBuild(b *testing.B) {
	m := costmodel.NewMeter(costmodel.DefaultCPU(), cachesim.New(cachesim.DefaultConfig()))
	d := benchDoc()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		baselines.FBBuild(d, m)
	}
}

func BenchmarkCapnpLiteBuild(b *testing.B) {
	m := costmodel.NewMeter(costmodel.DefaultCPU(), cachesim.New(cachesim.DefaultConfig()))
	d := benchDoc()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		baselines.CapnpBuild(d, m)
	}
}

func BenchmarkPinnedAllocFree(b *testing.B) {
	alloc := mem.NewAllocator()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf := alloc.Alloc(2048)
		buf.DecRef()
	}
}

func BenchmarkRecoverPtr(b *testing.B) {
	alloc := mem.NewAllocator()
	buf := alloc.Alloc(4096)
	view := buf.Bytes()[512:1536]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, ok := alloc.RecoverPtr(view)
		if !ok {
			b.Fatal("recover failed")
		}
		r.DecRef()
	}
}
