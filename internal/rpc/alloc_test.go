package rpc

import (
	"testing"

	"cornflakes/internal/driver"
	"cornflakes/internal/nic"
	"cornflakes/internal/sim"
)

// TestCodecBuildAllocFree pins the Cornflakes frame build at zero
// allocations once warm: the body marshals straight into the codec's
// reused frame buffer behind the in-place header.
func TestCodecBuildAllocFree(t *testing.T) {
	eng := sim.NewEngine()
	port, _ := nic.Link(eng, nic.MellanoxCX6(), nic.MellanoxCX6(), sim.Microsecond)
	n := driver.NewNode(eng, port, false)
	c := codec{sys: driver.SysCornflakes, n: n}
	key, val := []byte("rpc"), make([]byte, 128)
	h := Header{Kind: KindCall, Method: 1, CallID: 7, RootID: 7}
	build := func() {
		c.buildCall(h, key, val)
		c.buildReply(h, val)
		n.Arena.Reset()
	}
	build() // size the frame buffer and the message pool
	if allocs := testing.AllocsPerRun(100, build); allocs != 0 {
		t.Fatalf("codec build allocated %.2f times per call+reply (want 0)", allocs)
	}
}
