package loadgen

import (
	"testing"

	"cornflakes/internal/mem"
	"cornflakes/internal/sim"
	"cornflakes/internal/wire"
)

// scriptEP swallows every send; the test answers chosen wire ids itself
// through reply and shed.
type scriptEP struct {
	alloc *mem.Allocator
	recv  func(*mem.Buf)
}

func (e *scriptEP) SetRecvHandler(fn func(*mem.Buf))    { e.recv = fn }
func (e *scriptEP) SendContiguous([]byte, uint64) error { return nil }

func (e *scriptEP) deliver(p []byte) {
	buf := e.alloc.Alloc(len(p))
	copy(buf.Bytes(), p)
	e.recv(buf)
}

func (e *scriptEP) reply(id uint64) {
	var p [8]byte
	wire.PutU64(p[:], id)
	e.deliver(p[:])
}

func (e *scriptEP) shed(id uint64) {
	var p [9]byte
	p[0] = 0xEE
	wire.PutU64(p[1:], id)
	e.deliver(p[:])
}

// startScripted starts a run of client 2 on a scriptEP and advances the
// engine to the first send, returning the runner, the endpoint and the
// first flow.
func startScripted(t *testing.T, retry RetryPolicy, hedge HedgePolicy) (*Runner, *scriptEP, *flow) {
	t.Helper()
	eng := sim.NewEngine()
	ep := &scriptEP{alloc: mem.NewAllocator()}
	ru := Start(Config{
		Eng: eng, EP: ep, Gen: genConst{}, Client: idClient{},
		RatePerS: 10_000, Warmup: 0, Measure: 10 * sim.Millisecond, Seed: 9,
		Retry: retry, Hedge: hedge, ShedID: testShedID, ClientID: 2,
	})
	for ru.nextID == ru.firstID {
		eng.RunUntil(eng.Now() + sim.Microsecond)
	}
	return ru, ep, ru.flows[ru.firstID]
}

// advanceUntil runs the engine in 1 µs steps until cond holds.
func advanceUntil(t *testing.T, ru *Runner, cond func() bool) {
	t.Helper()
	for i := 0; !cond(); i++ {
		if i > 1000 {
			t.Fatal("condition never held")
		}
		ru.cfg.Eng.RunUntil(ru.cfg.Eng.Now() + sim.Microsecond)
	}
}

// An unmatched reply is late when its id was issued by this client (it lies
// in [ClientID<<48, nextID)) and bad otherwise: an id not yet issued, or
// one from another client's range.
func TestUnmatchedReplyLateOrBad(t *testing.T) {
	ru, ep, f := startScripted(t,
		RetryPolicy{Deadline: 20 * sim.Microsecond, MaxRetries: 1, Backoff: 10 * sim.Microsecond},
		HedgePolicy{})
	first := f.primaryID
	if first != 2<<48 {
		t.Fatalf("first wire id %#x, want client 2's first id %#x", first, uint64(2<<48))
	}
	advanceUntil(t, ru, func() bool { return f.primaryID != first })
	retry := f.primaryID

	ep.reply(first) // the expired attempt answers after its retry went out
	ep.shed(first)  // so does a shed of it
	if ru.res.LateResponses != 2 || ru.res.BadResponses != 0 {
		t.Fatalf("late reply to a retried attempt: late=%d bad=%d, want 2 and 0",
			ru.res.LateResponses, ru.res.BadResponses)
	}
	ep.reply(retry) // the retry completes the flow
	if ru.res.Completed != 1 {
		t.Fatalf("completed %d after the retry's reply, want 1", ru.res.Completed)
	}
	ep.reply(retry) // a duplicate of a completed attempt
	if ru.res.LateResponses != 3 {
		t.Fatalf("duplicate reply: late=%d, want 3", ru.res.LateResponses)
	}

	for _, id := range []uint64{
		ru.nextID,        // not issued yet
		ru.nextID + 1000, // far above
		1<<48 + 1,        // client 1's range
		3 << 48,          // client 3's range
		0,                // a solo run's range
	} {
		ep.reply(id)
	}
	if ru.res.BadResponses != 5 || ru.res.LateResponses != 3 || ru.res.HedgeWasted != 0 {
		t.Fatalf("foreign ids: bad=%d late=%d wasted=%d, want 5, 3 and 0",
			ru.res.BadResponses, ru.res.LateResponses, ru.res.HedgeWasted)
	}
}

// The loser of a decided hedge race is waste, not a late reply, even
// though its id lies in the issued range; a second reply from the winner
// is late.
func TestHedgeLoserIsWasteNotLate(t *testing.T) {
	ru, ep, f := startScripted(t,
		RetryPolicy{Deadline: 50 * sim.Microsecond},
		HedgePolicy{Delay: 5 * sim.Microsecond})
	primary := f.primaryID
	advanceUntil(t, ru, func() bool { return f.hedged })
	hedge := f.hedgeID

	ep.reply(hedge) // the hedge wins
	ep.reply(primary)
	ep.reply(hedge)
	r := ru.res
	if r.HedgeWins != 1 || r.HedgeWasted != 1 || r.LateResponses != 1 || r.BadResponses != 0 {
		t.Fatalf("hedge race: wins=%d wasted=%d late=%d bad=%d, want 1, 1, 1 and 0",
			r.HedgeWins, r.HedgeWasted, r.LateResponses, r.BadResponses)
	}
}
