package fabric

import (
	"bytes"
	"encoding/binary"
	"slices"
	"testing"

	"cornflakes/internal/netstack"
	"cornflakes/internal/nic"
	"cornflakes/internal/sim"
)

// tagged builds a frame to dst whose payload carries (sender, seq) and a
// filler derived from both, so a frame whose switch buffer was reused too
// early arrives visibly corrupted.
func tagged(dst, src byte, seq int) []byte {
	p := make([]byte, 64)
	binary.LittleEndian.PutUint32(p, uint32(seq))
	for i := 4; i < len(p); i++ {
		p[i] = byte(seq*7 + int(src)*31 + i)
	}
	return frame(dst, src, p)
}

func tagOf(f []byte) (src byte, seq int) {
	return f[netstack.HdrSrcOff], int(binary.LittleEndian.Uint32(f[netstack.PacketHeaderLen:]))
}

// TestSwitchForwardsInArrivalOrder sends interleaved streams from three
// endpoints (different propagation delays, staggered send times) to one
// destination and checks that it receives them, intact, in the order they
// reached the switch — the order of the senders' DeliverAt instants — at
// the default latency and at ExplicitZero, where forwarding happens at the
// arrival instant through the engine's same-instant ring.
func TestSwitchForwardsInArrivalOrder(t *testing.T) {
	for _, lat := range []float64{ExplicitZero, 300} {
		eng := sim.NewEngine()
		sw := New(eng, Config{LatencyNs: lat})
		dst, addrDst := sw.PlugIn(nic.MellanoxCX6(), sim.Microsecond)
		props := []sim.Time{sim.Microsecond, 1300 * sim.Nanosecond, 700 * sim.Nanosecond}
		type arrival struct {
			at       sim.Time
			src      byte
			seq      int
			expected []byte
		}
		var arrivals []arrival
		sent := map[[2]int][]byte{}
		for k, prop := range props {
			ep, addr := sw.PlugIn(nic.MellanoxCX6(), prop)
			ep.Observer = func(rec nic.TxRecord) {
				src, seq := tagOf(rec.Data)
				arrivals = append(arrivals, arrival{at: rec.DeliverAt, src: src, seq: seq})
			}
			for i := 0; i < 50; i++ {
				f := tagged(addrDst, addr, i)
				sent[[2]int{int(addr), i}] = f
				eng.At(sim.Time(i)*sim.Microsecond+sim.Time(k*137)*sim.Nanosecond, func() {
					if err := ep.Send([]nic.SGEntry{{Data: f}}); err != nil {
						t.Fatal(err)
					}
				})
			}
		}
		var got [][2]int
		dst.SetHandler(func(f *nic.Frame) {
			src, seq := tagOf(f.Data)
			if !bytes.Equal(f.Data, sent[[2]int{int(src), seq}]) {
				t.Fatalf("lat %v: frame %d/%d corrupted in the switch", lat, src, seq)
			}
			got = append(got, [2]int{int(src), seq})
		})
		eng.Run()

		slices.SortStableFunc(arrivals, func(a, b arrival) int { return int(a.at - b.at) })
		for i := 1; i < len(arrivals); i++ {
			if arrivals[i].at == arrivals[i-1].at {
				t.Fatalf("lat %v: tied arrivals at %v make the expected order ambiguous", lat, arrivals[i].at)
			}
		}
		if len(got) != len(arrivals) {
			t.Fatalf("lat %v: received %d frames, sent %d", lat, len(got), len(arrivals))
		}
		for i, a := range arrivals {
			if got[i] != [2]int{int(a.src), a.seq} {
				t.Fatalf("lat %v: delivery %d is %v, arrival order says %d/%d", lat, i, got[i], a.src, a.seq)
			}
		}
	}
}

// TestSwitchForwardOrderAcrossPortFlap flaps the destination's port and
// then the source's while a stream is in flight (frames waiting out the
// switching latency included): the frames that get through arrive intact
// and in send order, and every frame is accounted for as delivered,
// downed at egress or downed at ingress.
func TestSwitchForwardOrderAcrossPortFlap(t *testing.T) {
	for _, lat := range []float64{ExplicitZero, 300} {
		eng := sim.NewEngine()
		sw := New(eng, Config{LatencyNs: lat})
		src, addrSrc := sw.PlugIn(nic.MellanoxCX6(), sim.Microsecond)
		dst, addrDst := sw.PlugIn(nic.MellanoxCX6(), sim.Microsecond)
		const n = 200
		frames := make([][]byte, n)
		for i := range frames {
			f := tagged(addrDst, addrSrc, i)
			frames[i] = f
			eng.At(sim.Time(i)*100*sim.Nanosecond, func() {
				if err := src.Send([]nic.SGEntry{{Data: f}}); err != nil {
					t.Fatal(err)
				}
			})
		}
		flap := func(addr byte, down, up sim.Time) {
			eng.At(down, func() { sw.SetPortAdmin(addr, false) })
			eng.At(up, func() { sw.SetPortAdmin(addr, true) })
		}
		flap(addrDst, 5*sim.Microsecond+50*sim.Nanosecond, 8*sim.Microsecond)
		flap(addrSrc, 12*sim.Microsecond, 14*sim.Microsecond+30*sim.Nanosecond)
		last := -1
		received := 0
		dst.SetHandler(func(f *nic.Frame) {
			_, seq := tagOf(f.Data)
			if !bytes.Equal(f.Data, frames[seq]) {
				t.Fatalf("lat %v: frame %d corrupted in the switch", lat, seq)
			}
			if seq <= last {
				t.Fatalf("lat %v: frame %d delivered after frame %d", lat, seq, last)
			}
			last = seq
			received++
		})
		eng.Run()

		ts := sw.TotalStats()
		if ts.DownedEgress == 0 || ts.DownedIngress == 0 {
			t.Fatalf("lat %v: flaps lost nothing (downed egress %d, ingress %d)", lat, ts.DownedEgress, ts.DownedIngress)
		}
		if got := uint64(received) + ts.DownedEgress + ts.DownedIngress; got != n || ts.InFrames != n {
			t.Fatalf("lat %v: %d received + %d downed egress + %d downed ingress of %d sent (in %d)",
				lat, received, ts.DownedEgress, ts.DownedIngress, n, ts.InFrames)
		}
	}
}

// TestSwitchForwardAllocFree pins the steady-state switch path at zero
// allocations per frame: endpoint send, switch ingress (copy into a
// pooled switch buffer), forward after the switching latency, egress
// post, delivery, and the egress drain event.
func TestSwitchForwardAllocFree(t *testing.T) {
	eng := sim.NewEngine()
	sw := New(eng, Config{})
	a, addrA := sw.PlugIn(nic.MellanoxCX6(), sim.Microsecond)
	b, addrB := sw.PlugIn(nic.MellanoxCX6(), sim.Microsecond)
	b.SetHandler(func(*nic.Frame) {})
	sg := []nic.SGEntry{{Data: frame(addrB, addrA, make([]byte, 128))}}
	send := func() {
		for i := 0; i < 4; i++ {
			if err := a.Send(sg); err != nil {
				t.Fatal(err)
			}
		}
		eng.Run()
	}
	send() // warm the pools
	if allocs := testing.AllocsPerRun(100, send); allocs != 0 {
		t.Fatalf("switch ingress→forward→egress allocated %.2f times per 4 frames (want 0)", allocs)
	}
}
