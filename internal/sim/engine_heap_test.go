package sim

import (
	"math/rand"
	"slices"
	"testing"
)

// refEvent is one event of the reference model: its (at, seq) key and the
// id its callback records.
type refEvent struct {
	at  Time
	seq uint64
	id  int
}

// refQueue is an independent model of the dispatch order: a plain slice
// kept sorted by (at, seq), with nothing shared with the engine's ring or
// heap. The test's own sequence counter mirrors the engine contract that
// every At/After call takes the next seq.
type refQueue struct {
	pending []refEvent
	nextSeq uint64
}

func (q *refQueue) add(at Time, id int) {
	ev := refEvent{at: at, seq: q.nextSeq, id: id}
	q.nextSeq++
	i, _ := slices.BinarySearchFunc(q.pending, ev, func(a, b refEvent) int {
		if a.at != b.at {
			return int(a.at - b.at)
		}
		return int(int64(a.seq) - int64(b.seq))
	})
	q.pending = slices.Insert(q.pending, i, ev)
}

func (q *refQueue) remove(id int) bool {
	for i, ev := range q.pending {
		if ev.id == id {
			q.pending = slices.Delete(q.pending, i, i+1)
			return true
		}
	}
	return false
}

// TestEngineRandomizedAgainstSortedReference drives the engine with random
// At, After(0), Cancel (of ring entries and of events anywhere in the
// heap), RunUntil and Stop, from outside and from inside callbacks, and
// checks every dispatch against the sorted reference: each fired event
// must be the reference's minimum (at, seq) key, every Cancel must report
// exactly whether the reference still held the event, and after each run
// the clock, the pending count and the deadline bound must agree.
func TestEngineRandomizedAgainstSortedReference(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		e := NewEngine()
		ref := &refQueue{}
		timers := map[int]Timer{}
		var ids []int
		nextID := 0
		fired := 0
		var deadline Time = -1 // -1: Run, not RunUntil
		stopCalled := false

		var schedule func(now Time)
		fire := func(id int) {
			if len(ref.pending) == 0 {
				t.Fatalf("seed %d: event %d fired with the reference empty", seed, id)
			}
			want := ref.pending[0]
			if want.id != id || want.at != e.Now() {
				t.Fatalf("seed %d: fired event %d at %v, reference minimum is %d at %v",
					seed, id, e.Now(), want.id, want.at)
			}
			if deadline >= 0 && want.at > deadline {
				t.Fatalf("seed %d: event %d at %v fired past deadline %v", seed, id, want.at, deadline)
			}
			ref.pending = ref.pending[1:]
			delete(timers, id)
			fired++
			if rng.Intn(3) > 0 {
				schedule(e.Now())
			}
			if rng.Intn(40) == 0 {
				e.Stop()
				stopCalled = true
			}
		}
		add := func(at Time, after bool) {
			id := nextID
			nextID++
			if after {
				timers[id] = e.After(at-e.Now(), func() { fire(id) })
			} else {
				timers[id] = e.At(at, func() { fire(id) })
			}
			ref.add(at, id)
			ids = append(ids, id)
		}
		schedule = func(now Time) {
			for k := rng.Intn(4); k > 0; k-- {
				switch rng.Intn(7) {
				case 0, 1:
					add(now, false) // same instant: the ready ring
				case 2:
					add(now, true) // After(0)
				case 3, 4:
					add(now+Time(1+rng.Intn(40)), rng.Intn(2) == 0)
				default:
					// Cancel a random event, live or spent: ring entries,
					// the heap root and mid-heap entries all come up.
					if len(ids) == 0 {
						continue
					}
					id := ids[rng.Intn(len(ids))]
					tm, ok := timers[id]
					if !ok {
						continue // fired or cancelled already
					}
					if got, want := tm.Cancel(), ref.remove(id); got != want {
						t.Fatalf("seed %d: Cancel(%d) = %v, reference %v", seed, id, got, want)
					}
					delete(timers, id)
				}
			}
		}

		for round := 0; round < 60; round++ {
			for k := rng.Intn(6); k >= 0; k-- {
				add(e.Now()+Time(rng.Intn(60)), rng.Intn(2) == 0)
			}
			schedule(e.Now())
			stopCalled = false
			before := e.Now()
			if rng.Intn(4) == 0 {
				deadline = -1
				e.Run()
			} else {
				deadline = before + Time(rng.Intn(50))
				e.RunUntil(deadline)
			}
			if e.Pending() != len(ref.pending) {
				t.Fatalf("seed %d round %d: engine pending %d, reference %d", seed, round, e.Pending(), len(ref.pending))
			}
			if stopCalled {
				continue // a Stop cut the run short; the next round resumes it
			}
			if len(ref.pending) > 0 && (deadline < 0 || ref.pending[0].at <= deadline) {
				t.Fatalf("seed %d round %d: run returned with event %d at %v still due",
					seed, round, ref.pending[0].id, ref.pending[0].at)
			}
			if deadline >= 0 && e.Now() != deadline {
				t.Fatalf("seed %d round %d: RunUntil(%v) left the clock at %v", seed, round, deadline, e.Now())
			}
		}
		deadline = -1
		for e.Pending() > 0 {
			e.Run()
		}
		if len(ref.pending) != 0 {
			t.Fatalf("seed %d: engine drained, reference still holds %d events", seed, len(ref.pending))
		}
		if uint64(fired) != e.Processed() {
			t.Fatalf("seed %d: %d callbacks fired, engine processed %d", seed, fired, e.Processed())
		}
	}
}
