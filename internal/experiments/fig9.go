package experiments

import (
	"cornflakes/internal/driver"
	"cornflakes/internal/loadgen"
	"cornflakes/internal/nic"
	"cornflakes/internal/sim"
)

// Fig9 reproduces Figure 9: echo latency percentiles over the TCP stack
// for raw packet echo, FlatBuffers, and Cornflakes, at a fixed moderate
// load. Paper: Cornflakes sits 18–27.8 µs below FlatBuffers at the tail
// while adding only 4.9–10.8 µs over a raw packet echo.
func Fig9(sc Scale) *Report {
	r := &Report{
		ID:     "fig9",
		Title:  "TCP echo latency percentiles (two 2048B fields)",
		Header: []string{"system", "p5", "p25", "p50", "p75", "p99 (us)"},
	}
	arms := []struct {
		label string
		mode  driver.EchoMode
		sys   driver.System
	}{
		{"Raw packet echo", driver.EchoOneCopy, driver.SysCornflakes},
		{"FlatBuffers", driver.EchoLib, driver.SysFlatBuffers},
		{"Cornflakes", driver.EchoLib, driver.SysCornflakes},
	}
	const raw, fb, cf = 0, 1, 2
	type armRes struct {
		h      *loadgen.Histogram
		perReq float64
	}
	perArm := make([]armRes, len(arms))
	forEach(sc.workers(), len(arms), func(i int) {
		a := arms[i]
		tb := driver.NewTCPTestbed(nic.MellanoxCX6())
		driver.NewEchoServer(tb.Server, a.mode, a.sys, 2048, 2)
		res := loadgen.Run(loadgen.Config{
			Eng: tb.Eng, EP: tb.Client.TCP,
			Gen:    nopGen{},
			Client: &driver.EchoClient{Mode: a.mode, Sys: a.sys, N: tb.Client, FieldSize: 2048, NumFields: 2},
			// Fixed moderate load: the figure reports latency, not
			// saturation ("we encountered an issue sending at high packet
			// rates", §6.2.3 fn.9).
			RatePerS: 40_000,
			Warmup:   sim.Time(sc.WarmupMs) * sim.Millisecond,
			Measure:  sim.Time(sc.MeasureMs) * sim.Millisecond,
			Seed:     100,
		})
		perArm[i] = armRes{res.Latency, float64(tb.Server.Core.BusyTime) / float64(tb.Server.Core.JobsDone)}
	})
	for i, a := range arms {
		h := perArm[i].h
		r.Rows = append(r.Rows, []string{
			a.label,
			f1(h.Quantile(0.05).Microseconds()),
			f1(h.Quantile(0.25).Microseconds()),
			f1(h.Quantile(0.50).Microseconds()),
			f1(h.Quantile(0.75).Microseconds()),
			f1(h.Quantile(0.99).Microseconds()),
		})
	}
	cf99 := perArm[cf].h.Quantile(0.99).Microseconds()
	fb99 := perArm[fb].h.Quantile(0.99).Microseconds()
	raw99 := perArm[raw].h.Quantile(0.99).Microseconds()
	r.AddCheck("Cornflakes tail below FlatBuffers over TCP",
		cf99 < fb99, "p99: CF %.1f vs FB %.1f us", cf99, fb99)
	r.AddCheck("Cornflakes adds modest overhead over raw packet echo",
		cf99 >= raw99 && cf99-raw99 < 40,
		"p99: CF %.1f vs raw %.1f us (+%.1f)", cf99, raw99, cf99-raw99)
	r.AddCheck("server cycles per echo: Cornflakes below FlatBuffers",
		perArm[cf].perReq < perArm[fb].perReq,
		"service: raw %.0f, CF %.0f, FB %.0f ps/req",
		perArm[raw].perReq, perArm[cf].perReq, perArm[fb].perReq)
	return r
}
