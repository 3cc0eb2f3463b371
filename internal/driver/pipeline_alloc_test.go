package driver

import (
	"testing"

	"cornflakes/internal/nic"
	"cornflakes/internal/sim"
)

// TestPipelineSubmitAllocFree pins the unbatched host-core path at zero
// allocations per request once warm: Submit queues the request on the
// pipeline's job FIFO and submits the job bound once in Init, and the
// core serves the FIFO head through the handler.
func TestPipelineSubmitAllocFree(t *testing.T) {
	eng := sim.NewEngine()
	port, _ := nic.Link(eng, nic.MellanoxCX6(), nic.MellanoxCX6(), sim.Microsecond)
	n := NewNode(eng, port, false)
	var pl Pipeline
	served := 0
	pl.Init(n, "handle", func(r Req) {
		served++
		r.P.DecRef()
	})
	submit := func() {
		for i := 0; i < 4; i++ {
			pl.Submit(Req{P: n.Alloc.Alloc(64)})
		}
		eng.Run()
	}
	submit() // warm the FIFO, the core queue and the buffer pool
	if allocs := testing.AllocsPerRun(100, submit); allocs != 0 {
		t.Fatalf("Submit→serve allocated %.2f times per 4 requests (want 0)", allocs)
	}
	if want := 4 * 102; served != want { // warm-up + AllocsPerRun's extra run
		t.Fatalf("served %d requests, want %d", served, want)
	}
}
