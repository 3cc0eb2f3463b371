package netstack

import (
	"testing"

	"cornflakes/internal/core"
	"cornflakes/internal/mem"
	"cornflakes/internal/nic"
)

// TestSendObjectAllocFree pins the combined serialize-and-send path at
// zero allocations once its pools are warm: the pointer walk reuses the
// endpoint's scratch, gather entries and DMA buffers are pooled, and the
// receiving side's frame and RX buffers recycle too.
func TestSendObjectAllocFree(t *testing.T) {
	eng, ua, ub, na, _ := udpPair(nic.MellanoxCX6())
	ub.SetRecvHandler(func(p *mem.Buf) { p.DecRef() })
	s := testSchema()
	val := na.alloc.Alloc(2048) // zero-copy field
	send := func() {
		msg := core.NewMessage(s, na.ctx)
		msg.SetInt(0, 7)
		msg.AppendBytes(1, na.ctx.NewCFPtr([]byte("some-key"))) // copied field
		msg.AppendBytes(2, na.ctx.NewCFPtr(val.Bytes()))
		if err := ua.SendObject(msg); err != nil {
			t.Fatal(err)
		}
		msg.Release()
		na.arena.Reset()
		eng.Run()
	}
	send() // warm the pools
	if allocs := testing.AllocsPerRun(100, send); allocs != 0 {
		t.Fatalf("SendObject round trip allocated %.2f times (want 0)", allocs)
	}
}
