package loadgen

import (
	"testing"

	"cornflakes/internal/mem"
	"cornflakes/internal/sim"
	"cornflakes/internal/wire"
	"cornflakes/internal/workloads"
)

// loopback is an allocation-free echo Endpoint: each send copies the
// payload into a pinned buffer, and one callback bound at construction
// hands the buffers back in send order after a fixed delay.
type loopback struct {
	eng     *sim.Engine
	alloc   *mem.Allocator
	recv    func(*mem.Buf)
	delay   sim.Time
	q       []*mem.Buf
	head    int
	deliver func()
}

func newLoopback(eng *sim.Engine, delay sim.Time) *loopback {
	l := &loopback{eng: eng, alloc: mem.NewAllocator(), delay: delay}
	l.deliver = l.pop
	return l
}

func (l *loopback) SetRecvHandler(fn func(*mem.Buf)) { l.recv = fn }

func (l *loopback) SendContiguous(payload []byte, _ uint64) error {
	buf := l.alloc.Alloc(len(payload))
	copy(buf.Bytes(), payload)
	if l.head > 0 && len(l.q) == cap(l.q) {
		n := copy(l.q, l.q[l.head:])
		clear(l.q[n:])
		l.q, l.head = l.q[:n], 0
	}
	l.q = append(l.q, buf)
	l.eng.After(l.delay, l.deliver)
	return nil
}

func (l *loopback) pop() {
	buf := l.q[l.head]
	l.q[l.head] = nil
	l.head++
	if l.head == len(l.q) {
		l.q, l.head = l.q[:0], 0
	}
	l.recv(buf)
}

// bufClient is idClient without the per-request slice: it encodes the id
// into one reused buffer, which the endpoint copies before BuildStep runs
// again.
type bufClient struct{ b [8]byte }

func (c *bufClient) Steps(workloads.Request) int { return 1 }
func (c *bufClient) BuildStep(id uint64, _ workloads.Request, _ int) []byte {
	wire.PutU64(c.b[:], id)
	return c.b[:]
}
func (c *bufClient) ResponseID(p []byte) (uint64, error) { return idClient{}.ResponseID(p) }

// TestRequestReplyAllocFree pins the generator's steady state at zero
// allocations per request with the retry policy armed: arrivals, sends,
// deadline timers, reply matching and flow recycling reuse what the
// warm-up built.
func TestRequestReplyAllocFree(t *testing.T) {
	eng := sim.NewEngine()
	ep := newLoopback(eng, 3*sim.Microsecond)
	ru := Start(Config{
		Eng: eng, EP: ep, Gen: genConst{}, Client: &bufClient{},
		RatePerS: 200_000, Warmup: 0, Measure: sim.Second, Seed: 5,
		Retry: RetryPolicy{Deadline: 50 * sim.Microsecond, MaxRetries: 2, Backoff: 10 * sim.Microsecond},
	})
	eng.RunUntil(5 * sim.Millisecond)
	before := ru.res.Completed
	const step = 100 * sim.Microsecond // about 20 requests
	allocs := testing.AllocsPerRun(100, func() { eng.RunUntil(eng.Now() + step) })
	served := ru.res.Completed - before
	if served < 1000 {
		t.Fatalf("only %d requests completed while measuring; the pin would be vacuous", served)
	}
	if allocs != 0 {
		t.Fatalf("steady-state request/reply allocated %.2f times per %v of load (want 0)", allocs, step)
	}
	if ru.res.BadResponses != 0 || ru.res.LateResponses != 0 || ru.res.Retries != 0 {
		t.Fatalf("loopback run not clean: %+v", ru.res)
	}
}
