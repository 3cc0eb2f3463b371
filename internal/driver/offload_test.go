package driver

import (
	"bytes"
	"testing"

	"cornflakes/internal/costmodel"
	"cornflakes/internal/loadgen"
	"cornflakes/internal/mem"
	"cornflakes/internal/msgs"
	"cornflakes/internal/nic"
	"cornflakes/internal/sim"
	"cornflakes/internal/workloads"
)

// The KV server's offload core is the same model as rpc.Service's: each
// response's serialize+tx stage runs on the NIC-side engine, so host-side
// serialization per request drops to at most half the host-only baseline
// and the moved cycles show up on the offload receipt instead. RX,
// deserialize and app work stay on the host: the offload receipt carries
// none of them and host deserialize per request matches the baseline. At
// this load the engine is mostly idle, so stages run the instant they are
// submitted.
func TestKVOffloadMovesSerializationOffHost(t *testing.T) {
	for _, sys := range []System{SysCornflakes, SysProtobuf} {
		run := func(off bool) *KVServer {
			gen := workloads.NewYCSB(200, 512, 2)
			tb := NewTestbed(nic.MellanoxCX6())
			srv := NewKVServer(tb.Server, sys)
			if off {
				srv.AttachOffload()
			}
			srv.Preload(gen.Records())
			res := loadgen.Run(loadgen.Config{
				Eng: tb.Eng, EP: tb.Client.UDP,
				Gen: gen, Client: NewKVClient(tb.Client, sys),
				RatePerS: 100_000, Measure: 2 * sim.Millisecond, Seed: 5,
			})
			tb.Eng.Run()
			if res.Completed == 0 || srv.Handled == 0 {
				t.Fatalf("%v offload=%v: nothing completed", sys, off)
			}
			if srv.Errors != 0 {
				t.Fatalf("%v offload=%v: %d server errors", sys, off, srv.Errors)
			}
			return srv
		}
		srv, base := run(true), run(false)
		perReq := func(s *KVServer, c costmodel.Category) float64 {
			return s.HostRec.Cycles[c] / float64(s.Handled)
		}
		on, off := perReq(srv, costmodel.CatSerialize), perReq(base, costmodel.CatSerialize)
		if off <= 0 {
			t.Fatalf("%v: baseline host serialization is zero (%.1f)", sys, off)
		}
		if on > off/2 {
			t.Errorf("%v: offload left %.1f ser cycles/request on host (baseline %.1f)", sys, on, off)
		}
		if srv.OffRec.Cycles[costmodel.CatSerialize] <= 0 {
			t.Errorf("%v: offload engine recorded no serialization cycles", sys)
		}
		if srv.Offload.JobsDone == 0 {
			t.Errorf("%v: offload core ran no jobs", sys)
		}
		checkHostKeepsDeserialize(t, sys.String(), srv.OffRec, perReq(srv, costmodel.CatDeserialize), perReq(base, costmodel.CatDeserialize))
		t.Logf("%v: host serialize %.1f → %.1f cycles/request", sys, off, on)
	}
}

// checkHostKeepsDeserialize asserts the offload receipt holds no RX,
// deserialize or app cycles, and that host deserialize per request with
// offload (des) is within 10% of the host-only baseline (base): the stages
// touch the shared cache at different instants, so it is close, not equal.
func checkHostKeepsDeserialize(t *testing.T, name string, off costmodel.Receipt, des, base float64) {
	t.Helper()
	for _, c := range []costmodel.Category{costmodel.CatRx, costmodel.CatDeserialize, costmodel.CatApp} {
		if off.Cycles[c] != 0 {
			t.Errorf("%s: offload receipt carries %.0f %v cycles; that work belongs to the host", name, off.Cycles[c], c)
		}
	}
	if base <= 0 || des < 0.9*base || des > 1.1*base {
		t.Errorf("%s: host deserialize %.1f cycles/request with offload, %.1f without", name, des, base)
	}
}

// A get whose offload stage runs after a put replaced its value must still
// send the value it looked up: the host stage holds a reference on each
// value until the offload stage has sent it.
func TestKVOffloadHoldsValuesAcrossPut(t *testing.T) {
	key := []byte("k")
	old := [][]byte{bytes.Repeat([]byte{0xAA}, 1024), bytes.Repeat([]byte{0xAB}, 1024)}
	tb := NewTestbed(nic.MellanoxCX6())
	srv := NewKVServer(tb.Server, SysCornflakes)
	srv.AttachOffload()
	srv.Preload([]workloads.KV{{Key: key, Vals: old}})
	// Keep the engine busy so both requests' host stages run before the
	// get's offload stage.
	srv.Offload.Submit(sim.Job{Run: func() sim.Time { return 50 * sim.Microsecond }})

	var got [][]byte
	tb.Client.UDP.SetRecvHandler(func(p *mem.Buf) {
		defer p.DecRef()
		if id, _ := SysCornflakes.PeekID(p.Bytes()); id != 1 {
			return
		}
		m, err := tb.Client.Ctx.DeserializeBytes(msgs.GetListRespSchema, p.Bytes())
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		for j := 0; j < m.ListLen(1); j++ {
			got = append(got, append([]byte(nil), m.GetBytesElem(1, j)...))
		}
	})
	client := NewKVClient(tb.Client, SysCornflakes)
	for id, req := range []workloads.Request{
		{Op: workloads.OpGetList, Keys: [][]byte{key}},
		{Op: workloads.OpPut, Keys: [][]byte{key}, Vals: [][]byte{bytes.Repeat([]byte{0xBB}, 1024)}},
	} {
		payload := client.BuildStep(uint64(id+1), req, 0)
		tb.Client.UDP.SendContiguous(payload, mem.UnpinnedSimAddr(payload))
	}
	tb.Eng.Run()

	if srv.Handled != 2 || srv.Errors != 0 {
		t.Fatalf("handled %d, errors %d; want 2 requests served cleanly", srv.Handled, srv.Errors)
	}
	if len(got) != len(old) || !bytes.Equal(got[0], old[0]) || !bytes.Equal(got[1], old[1]) {
		t.Fatalf("get returned %d values, want the %d pre-put values intact", len(got), len(old))
	}
}
