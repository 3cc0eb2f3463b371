package experiments

import (
	"fmt"

	"cornflakes/internal/driver"
	"cornflakes/internal/faults"
	"cornflakes/internal/mem"
	"cornflakes/internal/msgs"
	"cornflakes/internal/nic"
	"cornflakes/internal/sim"
	"cornflakes/internal/wire"
	"cornflakes/internal/workloads"
)

// The fault-injection soak: the paper's core safety claim is that
// zero-copy buffers stay alive across "transmission (and potential
// re-transmission)" (§3). This harness makes that claim empirical rather
// than reviewed-by-eye: it drives the echo and KV workloads over TCP-lite
// links wrapped in seeded faults.Plan adversaries (loss up to 30% per
// direction, bursts, reordering, duplication, jitter, corruption) and
// asserts three invariants after drain:
//
//  1. liveness — every request eventually completes (no stall);
//  2. integrity — every received payload byte-matches what was sent;
//  3. safety — every mem.Buf refcount returns to its baseline (no
//     use-after-free, no pinned-memory leak).

// SoakScenarios is the size of the seeded scenario sweep; the acceptance
// bar for the retransmission fixes is all of them passing.
const SoakScenarios = 100

// soakMessages is the closed-loop request count per scenario and
// soakWindow the number kept in flight (deep enough to exercise go-back-N
// with several segments outstanding).
const (
	soakMessages = 24
	soakWindow   = 4
	// soakDeadline caps one scenario's virtual time; a scenario that has
	// not quiesced by then is declared stalled. Fault-free traffic
	// finishes in well under a millisecond, so this is ~3 orders of
	// magnitude of headroom.
	soakDeadline = 500 * sim.Millisecond
)

// soakPlan derives scenario i's fault plan from its seed: every knob is a
// fresh draw, so the sweep covers light jitter-only links through bursty
// corrupting ones at 30% loss, and scenario i is replayable in isolation.
func soakPlan(seed uint64) faults.Plan {
	rng := sim.NewRand(seed)
	dir := func(r *sim.Rand) faults.Dir {
		return faults.Dir{
			Loss:         0.30 * r.Float64(),
			BurstLoss:    0.03 * r.Float64(),
			BurstLen:     1 + 3*r.Float64(),
			Reorder:      0.20 * r.Float64(),
			ReorderDelay: 20 * sim.Microsecond,
			Duplicate:    0.10 * r.Float64(),
			Jitter:       r.Duration(5 * sim.Microsecond),
			Corrupt:      0.10 * r.Float64(),
		}
	}
	return faults.Plan{Seed: seed, AtoB: dir(rng.Fork(2)), BtoA: dir(rng.Fork(3))}
}

// SoakResult is one scenario's outcome.
type SoakResult struct {
	Workload   string
	Seed       uint64
	Completed  int
	Total      int
	Mismatches int
	Stalled    bool
	// LeakedClient/LeakedServer are pinned slots still held beyond the
	// pre-traffic baseline after drain.
	LeakedClient int64
	LeakedServer int64

	Retransmits uint64 // both directions
	WireDrops   uint64
	FCSDrops    uint64
	DupAcks     uint64

	// Conserved reports the NIC frame-conservation law holding in both
	// directions after drain: frames posted plus injector-duplicated
	// copies equal frames delivered intact plus wire drops plus
	// FCS-discarded arrivals. This pins the post-time/delivered counter
	// split — a goodput computed from TxFrames would silently count lost
	// frames; conservation proves the delivered counters account for
	// every posted frame and every extra copy exactly once.
	Conserved bool

	// PeakClient/PeakServer are the pinned-slot high-water marks over the
	// scenario, bounded by CapClient/CapServer (baseline + soakCapHeadroom):
	// retransmission buffering under faults must stay within a fixed
	// budget, not merely drain eventually.
	PeakClient, PeakServer int64
	CapClient, CapServer   int64
}

// OK reports whether all five invariants held.
func (r SoakResult) OK() bool {
	return !r.Stalled && r.Mismatches == 0 && r.LeakedClient == 0 && r.LeakedServer == 0 &&
		r.PeakClient <= r.CapClient && r.PeakServer <= r.CapServer && r.Conserved
}

func (r SoakResult) String() string {
	return fmt.Sprintf("%s seed=%d done=%d/%d mismatch=%d stalled=%v leak=%d/%d rtx=%d drops=%d fcs=%d conserved=%v",
		r.Workload, r.Seed, r.Completed, r.Total, r.Mismatches, r.Stalled,
		r.LeakedClient, r.LeakedServer, r.Retransmits, r.WireDrops, r.FCSDrops, r.Conserved)
}

// soakCapHeadroom is the pinned-slot budget each node gets over its
// pre-traffic baseline. It is generous for the tiny closed-loop window —
// the bound must never perturb the scenario — so the assertion it backs is
// that fault-driven retransmission buffering stays within a fixed budget.
const soakCapHeadroom = 512

// soakBound caps both allocators at baseline + headroom; called once the
// baselines are measured, before traffic starts.
func soakBound(res *SoakResult, tb *driver.Testbed, clientBase, serverBase int64) {
	res.CapClient = clientBase + soakCapHeadroom
	res.CapServer = serverBase + soakCapHeadroom
	tb.Client.Alloc.SetCap(res.CapClient)
	tb.Server.Alloc.SetCap(res.CapServer)
}

// soakFinish drains the scenario and fills in the invariant fields shared
// by both workloads. ab/ba are the injectors faults.Apply installed on the
// client and server ports, for the frame-conservation accounting.
func soakFinish(res *SoakResult, tb *driver.Testbed, clientBase, serverBase int64,
	ab, ba *faults.Injector) {
	tb.Eng.RunUntil(soakDeadline)
	res.PeakClient = tb.Client.Alloc.Stats().PeakSlotsInUse
	res.PeakServer = tb.Server.Alloc.Stats().PeakSlotsInUse
	quiesced := res.Completed == res.Total &&
		tb.Client.TCP.Unacked() == 0 && tb.Server.TCP.Unacked() == 0
	res.Stalled = !quiesced
	res.LeakedClient = tb.Client.Alloc.Stats().SlotsInUse - clientBase
	res.LeakedServer = tb.Server.Alloc.Stats().SlotsInUse - serverBase
	cp, sp := tb.Client.TCP.Port, tb.Server.TCP.Port
	res.Retransmits = tb.Client.TCP.Retransmits + tb.Server.TCP.Retransmits
	res.WireDrops = cp.DroppedFrames + sp.DroppedFrames
	res.FCSDrops = cp.RxFCSErrors + sp.RxFCSErrors
	res.DupAcks = tb.Client.TCP.DupAcks + tb.Server.TCP.DupAcks
	// Frame conservation, per direction: every posted frame and every
	// injector-duplicated copy ends up exactly one of delivered intact,
	// dropped on the wire, or discarded by the receiver's FCS check.
	res.Conserved =
		cp.TxFrames+ab.Stats.Duplicated == cp.DeliveredFrames+cp.DroppedFrames+sp.RxFCSErrors &&
			sp.TxFrames+ba.Stats.Duplicated == sp.DeliveredFrames+sp.DroppedFrames+cp.RxFCSErrors
}

// SoakEcho runs one echo scenario: raw TCP echo of rng-patterned payloads,
// verified byte-for-byte against a recomputation on receipt.
func SoakEcho(seed uint64) SoakResult {
	res := SoakResult{Workload: "echo", Seed: seed, Total: soakMessages}
	tb := driver.NewTCPTestbed(nic.MellanoxCX6())
	driver.NewEchoServer(tb.Server, driver.EchoOneCopy, driver.SysCornflakes, 0, 0)
	ab, ba := faults.Apply(soakPlan(seed), tb.Client.TCP.Port, tb.Server.TCP.Port)

	clientBase := tb.Client.Alloc.Stats().SlotsInUse
	serverBase := tb.Server.Alloc.Stats().SlotsInUse
	soakBound(&res, tb, clientBase, serverBase)

	// Payload for request id: 8-byte id then an id-seeded pattern, so the
	// expected bytes are recomputable at verification time without keeping
	// the sent copy around (the application frees immediately after send).
	payload := func(id uint64) []byte {
		prng := sim.NewRand(seed).Fork(1000 + id)
		b := make([]byte, 8+64+prng.Intn(2048))
		wire.PutU64(b, id)
		for i := 8; i < len(b); i++ {
			b[i] = byte(prng.Uint64())
		}
		return b
	}

	var sent uint64
	sendNext := func() {
		if sent >= uint64(res.Total) {
			return
		}
		p := payload(sent)
		sent++
		tb.Client.TCP.SendContiguous(p, 0)
	}
	tb.Client.TCP.SetRecvHandler(func(p *mem.Buf) {
		defer p.DecRef()
		if p.Len() < 8 {
			res.Mismatches++
			return
		}
		id := wire.GetU64(p.Bytes())
		if !bytesEqual(p.Bytes(), payload(id)) {
			res.Mismatches++
		}
		res.Completed++
		sendNext()
	})
	for i := 0; i < soakWindow; i++ {
		sendNext()
	}
	soakFinish(&res, tb, clientBase, serverBase, ab, ba)
	return res
}

// SoakKV runs one KV scenario: multi-gets against a preloaded store over
// the TCP stack, responses deserialized and compared against the store's
// ground-truth values (which travel zero-copy out of pinned memory on the
// server, so a use-after-free would surface as a mismatch).
func SoakKV(seed uint64) SoakResult {
	res := SoakResult{Workload: "kv", Seed: seed, Total: soakMessages}
	tb := driver.NewTCPTestbed(nic.MellanoxCX6())
	srv := driver.NewKVServer(tb.Server, driver.SysCornflakes)

	// A small store of 1–2 KiB values: above the zero-copy threshold, so
	// responses pin store memory across retransmission.
	rng := sim.NewRand(seed).Fork(500)
	recs := make([]workloads.KV, 16)
	vals := make([][]byte, len(recs))
	for i := range recs {
		v := make([]byte, 1024+rng.Intn(1024))
		for j := range v {
			v[j] = byte(rng.Uint64())
		}
		recs[i] = workloads.KV{
			Key:  []byte(fmt.Sprintf("soak-key-%04d", i)),
			Vals: [][]byte{v},
		}
		vals[i] = v
	}
	srv.Preload(recs)
	ab, ba := faults.Apply(soakPlan(seed), tb.Client.TCP.Port, tb.Server.TCP.Port)

	clientBase := tb.Client.Alloc.Stats().SlotsInUse
	serverBase := tb.Server.Alloc.Stats().SlotsInUse
	soakBound(&res, tb, clientBase, serverBase)

	codec := driver.NewKVClient(tb.Client, driver.SysCornflakes)
	// keysOf(id) regenerates request id's key set deterministically; like
	// the echo pattern, it makes expected responses recomputable.
	keysOf := func(id uint64) []int {
		r := sim.NewRand(seed).Fork(600 + id)
		ks := make([]int, 1+r.Intn(3))
		for i := range ks {
			ks[i] = r.Intn(len(recs))
		}
		return ks
	}

	var sent uint64
	sendNext := func() {
		if sent >= uint64(res.Total) {
			return
		}
		id := sent
		sent++
		req := workloads.Request{Op: workloads.OpGetM}
		for _, k := range keysOf(id) {
			req.Keys = append(req.Keys, recs[k].Key)
		}
		p := codec.BuildStep(id, req, 0)
		tb.Client.TCP.SendContiguous(p, 0)
	}
	tb.Client.TCP.SetRecvHandler(func(p *mem.Buf) {
		m, err := msgs.DeserializeGetM(tb.Client.Ctx, p)
		if err != nil {
			p.DecRef()
			res.Mismatches++
			res.Completed++
			sendNext()
			return
		}
		ks := keysOf(m.Id())
		if m.ValsLen() != len(ks) {
			res.Mismatches++
		} else {
			for j, k := range ks {
				if !bytesEqual(m.Vals(j), vals[k]) {
					res.Mismatches++
					break
				}
			}
		}
		m.Release()
		tb.Client.Arena.Reset()
		res.Completed++
		sendNext()
	})
	for i := 0; i < soakWindow; i++ {
		sendNext()
	}
	soakFinish(&res, tb, clientBase, serverBase, ab, ba)
	return res
}

func bytesEqual(a, b []byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Soak runs the full seeded scenario sweep and reports aggregate fault and
// invariant counts. Scale does not change the sweep — the scenario set IS
// the contract — but Quick keeps per-scenario traffic small enough that
// the whole sweep stays test-suite friendly.
func Soak(sc Scale) *Report {
	r := &Report{
		ID:    "soak",
		Title: fmt.Sprintf("TCP-lite under %d seeded fault scenarios (loss/burst/reorder/dup/jitter/corrupt)", SoakScenarios),
		Header: []string{"workload", "scenarios", "requests", "rtx", "wire drops", "fcs drops", "dup acks",
			"stalls", "mismatches", "leaks"},
	}
	agg := map[string]*SoakResult{}
	order := []string{"echo", "kv"}
	for _, w := range order {
		agg[w] = &SoakResult{Workload: w}
	}
	scenarios := 0
	var failures []string
	capViolations := 0
	unconserved := 0
	var worstHeadroom int64
	// Every (seed, workload) scenario is an independent simulation; run the
	// whole grid concurrently, then aggregate in seed order so failure
	// notes (and the report fingerprint) stay deterministic.
	results := make([]SoakResult, SoakScenarios*len(order))
	forEach(sc.workers(), len(results), func(i int) {
		seed := uint64(i/len(order)) + 1
		if order[i%len(order)] == "echo" {
			results[i] = SoakEcho(seed)
		} else {
			results[i] = SoakKV(seed)
		}
	})
	for seed := uint64(1); seed <= SoakScenarios; seed++ {
		for wi, w := range order {
			res := results[int(seed-1)*len(order)+wi]
			scenarios++
			if res.PeakClient > res.CapClient || res.PeakServer > res.CapServer {
				capViolations++
			}
			if !res.Conserved {
				unconserved++
			}
			// Headroom actually consumed above the pre-traffic baseline.
			for _, used := range []int64{
				res.PeakClient - (res.CapClient - soakCapHeadroom),
				res.PeakServer - (res.CapServer - soakCapHeadroom),
			} {
				if used > worstHeadroom {
					worstHeadroom = used
				}
			}
			a := agg[w]
			a.Total += res.Total
			a.Completed += res.Completed
			a.Mismatches += res.Mismatches
			a.Retransmits += res.Retransmits
			a.WireDrops += res.WireDrops
			a.FCSDrops += res.FCSDrops
			a.DupAcks += res.DupAcks
			a.LeakedClient += res.LeakedClient
			a.LeakedServer += res.LeakedServer
			if res.Stalled {
				a.Stalled = true
			}
			if !res.OK() {
				failures = append(failures, res.String())
			}
		}
	}
	stalls := 0
	for _, w := range order {
		a := agg[w]
		st := 0
		if a.Stalled {
			st = 1
			stalls++
		}
		r.Rows = append(r.Rows, []string{
			w, fmt.Sprint(SoakScenarios), fmt.Sprint(a.Total),
			fmt.Sprint(a.Retransmits), fmt.Sprint(a.WireDrops), fmt.Sprint(a.FCSDrops), fmt.Sprint(a.DupAcks),
			fmt.Sprint(st), fmt.Sprint(a.Mismatches),
			fmt.Sprint(a.LeakedClient + a.LeakedServer),
		})
	}
	for _, f := range failures {
		r.Notes = append(r.Notes, "FAILED: "+f)
	}
	total := agg["echo"].Total + agg["kv"].Total
	done := agg["echo"].Completed + agg["kv"].Completed
	r.AddCheck("liveness: every request completed under faults",
		done == total && len(failures) == 0, "%d/%d completed, %d failing scenarios", done, total, len(failures))
	r.AddCheck("integrity: zero payload mismatches",
		agg["echo"].Mismatches+agg["kv"].Mismatches == 0, "%d mismatches",
		agg["echo"].Mismatches+agg["kv"].Mismatches)
	r.AddCheck("safety: all refcounts drained to baseline",
		agg["echo"].LeakedClient+agg["echo"].LeakedServer+agg["kv"].LeakedClient+agg["kv"].LeakedServer == 0,
		"echo leak %d/%d, kv leak %d/%d",
		agg["echo"].LeakedClient, agg["echo"].LeakedServer, agg["kv"].LeakedClient, agg["kv"].LeakedServer)
	r.AddCheck("bounded: peak pinned occupancy stayed within every scenario's cap",
		capViolations == 0, "%d violations; worst headroom use %d of %d slots",
		capViolations, worstHeadroom, int64(soakCapHeadroom))
	r.AddCheck("conservation: posted + duplicated frames == delivered + dropped + FCS-discarded",
		unconserved == 0, "%d of %d scenarios violated", unconserved, scenarios)
	// The sweep must actually have hurt: a plan generator bug that yields
	// clean links would green-light broken retransmission code.
	r.AddCheck("adversity: wire drops, retransmits, dups and corruption all exercised",
		agg["echo"].WireDrops+agg["kv"].WireDrops > 0 &&
			agg["echo"].Retransmits+agg["kv"].Retransmits > 0 &&
			agg["echo"].FCSDrops+agg["kv"].FCSDrops > 0 &&
			agg["echo"].DupAcks+agg["kv"].DupAcks > 0,
		"drops=%d rtx=%d fcs=%d dupacks=%d",
		agg["echo"].WireDrops+agg["kv"].WireDrops,
		agg["echo"].Retransmits+agg["kv"].Retransmits,
		agg["echo"].FCSDrops+agg["kv"].FCSDrops,
		agg["echo"].DupAcks+agg["kv"].DupAcks)
	return r
}
