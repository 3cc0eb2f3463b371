package driver

import (
	"fmt"

	"cornflakes/internal/costmodel"
	"cornflakes/internal/mem"
	"cornflakes/internal/netstack"
	"cornflakes/internal/sim"
	"cornflakes/internal/trace"
)

// Pipeline is the request lifecycle every server on a node shares:
//
//	rx → admit → [software RX ring] → host-core job → [offload core] → tx
//
// A server supplies only its handler. KVServer (get/getM/list/index/put)
// and rpc.Service (calls, child replies and notifications) embed one;
// EchoServer and RedisServer hold one unexported and use only its
// host-core job (Init and Submit), so none of its settings reach their
// callers. The pipeline owns everything around the handler, each
// mechanism modelled once: admission control with explicit shed replies,
// the host-core job (dispatch mark, crash discard, arena reset, receipts,
// gray slowdown), crash/recover/gray fault state, and the optional
// NIC-side offload core. The batched RX ring and the segmentation layer
// live here too, but only KVServer turns them on (EnableBatching,
// NewSegmentedKVServer); their settings are unexported, so the rpc
// package cannot reach them.
type Pipeline struct {
	N *Node

	// ShedQueue is admission control: an arriving request that finds
	// PendingDepth ≥ ShedQueue is shed with an explicit ShedReply instead
	// of queued, keeping the RX ring from starving ACK and completion
	// traffic. Zero disables it.
	ShedQueue int

	// Offload, when set, is an RPCAcc/Dagger-style NIC serialization engine
	// (AttachOffload): the host core still pays RX, dispatch, deserialize
	// and app work, but each handler's serialize+tx stage runs — and queues
	// — on this second core once the host job completes, with its own
	// receipt (OffRec).
	Offload *sim.Core

	// Trace, when set, receives the dispatch mark of every traced request
	// and the admission-control shed marks.
	Trace *trace.Tracer

	// Stats. Handled and Errors are counted by the handler.
	Handled, Errors uint64
	// Shed counts requests rejected with an explicit reply (or counted in
	// ShedReplyErrs when even the reply could not be sent).
	Shed          uint64
	ShedReplyErrs uint64
	// DownDrops counts requests the crash discarded: work parked in the RX
	// ring when the node died, plus queued-but-unserved core jobs that fire
	// while down. Recoveries counts cold restarts.
	DownDrops  uint64
	Recoveries uint64
	// Batch stats: Batches counts drainer runs, BatchedReqs the requests
	// they served (mean burst = BatchedReqs/Batches), MaxBatch the largest
	// single burst — the observable for "adaptive sizing engaged".
	Batches     uint64
	BatchedReqs uint64
	MaxBatch    int
	// HostRec / OffRec accumulate the receipts drained on the host core
	// and on the offload core.
	HostRec, OffRec costmodel.Receipt

	serve       func(r Req)
	observe     func(r Req, rec costmodel.Receipt)
	handleLabel string

	// Fault state, set through Crash, Recover and SetGray (the
	// faults.FaultNode interface). down marks the node crashed: queued
	// requests are discarded (counted in DownDrops) and the netstack drops
	// arriving frames. slowdown > 1 is gray failure: every service time is
	// scaled by it.
	down     bool
	slowdown float64

	// seg, when set, carries requests and responses through the §3.2.3
	// segmentation layer (objects larger than one jumbo frame).
	seg *netstack.Segmenter
	// maxBurst, when ≥ 2, enables the batched RX/TX datapath (§12,
	// KVServer.EnableBatching): arriving requests queue in a software RX
	// ring and one core job drains min(backlog, maxBurst) of them,
	// amortizing dispatch, the poll-loop share of RX and — through one TX
	// batch flushed at the end of the burst — the reply doorbells. At
	// maxBurst ≤ 1 (or on TCP/segmented servers) the unbatched path runs.
	maxBurst int

	// rxq is the batched path's software RX ring: requests waiting for the
	// drainer, bounded by Core.MaxQueue like the core's own queue.
	rxq []Req
	// drainerArmed notes that a drainer job is already submitted, so each
	// backlog needs only one.
	drainerArmed bool
	// stage is the serialize+tx stage the running host job handed to the
	// offload core (OffloadStage); serveOne submits it at the job's
	// completion.
	stage offStage

	// jobq[jobh:] holds the requests Submit queued as host-core jobs, in
	// submission order. The core is FIFO, so every one of those jobs — the
	// same job, job, bound once in Init — serves the queue head: the
	// pipeline keeps the request, and submitting it costs no closure.
	jobq []Req
	jobh int
	job  sim.Job
}

// offStage is one handler's deferred serialize+tx stage: run sends the
// replies to src on the offload core; drop, if set, releases what run
// would have when the offload queue is full and run never happens.
type offStage struct {
	src       byte
	run, drop func()
}

// Req is one request moving through a Pipeline.
type Req struct {
	P *mem.Buf
	// ID is the trace id the dispatch mark is attributed to; Traced says
	// whether to mark at all.
	ID     uint64
	Traced bool
	// Src is the requester's fabric address, captured at arrival: by the
	// time the request is served, later frames have overwritten the
	// stack's RxSrc. Zero outside a fabric topology.
	Src byte
	// Arg carries handler state from arrival to service.
	Arg any

	enq sim.Time // arrival at the software RX ring
}

// Init binds the pipeline to its node and handler. serve runs each
// admitted request on the host core and consumes r.P; handleLabel is the
// trace label of the dispatch mark. It panics on a client node: a server
// is a modelled machine and needs a cache hierarchy.
func (pl *Pipeline) Init(n *Node, handleLabel string, serve func(r Req)) {
	if n.Cache == nil {
		panic("driver: a server needs a modelled node, not a client node")
	}
	pl.N = n
	pl.handleLabel = handleLabel
	pl.serve = serve
	pl.job = sim.Job{Run: pl.serveQueued}
}

// AttachOffload gives the server a NIC-side serialization engine with an
// RX-ring-deep queue.
func (pl *Pipeline) AttachOffload() {
	pl.Offload = sim.NewCore(pl.N.Eng)
	pl.Offload.MaxQueue = rxRingDepth
}

// batched reports whether the batched datapath is active. TCP and
// segmented servers always use the unbatched path: their replies flow
// through connection state the TX batch bracket does not cover.
func (pl *Pipeline) batched() bool {
	return pl.maxBurst >= 2 && pl.N.TCP == nil && pl.seg == nil
}

// Crash kills the node: the netstack starts discarding arriving frames
// (counted there in RxDownDrops) and every request parked in the software
// RX ring dies with the process — dropped with exact accounting, never
// served. A job already executing on the core at the crash instant
// completes (the model's jobs are atomic units of service); queued core
// jobs that fire while down are discarded by the down check in their Run.
func (pl *Pipeline) Crash() {
	pl.down = true
	if pl.N.UDP != nil {
		pl.N.UDP.Down = true
	}
	for i := range pl.rxq {
		pl.DownDrops++
		pl.rxq[i].P.DecRef()
		pl.rxq[i] = Req{}
	}
	pl.rxq = pl.rxq[:0]
}

// Recover restarts the node cold: the netstack accepts frames again and
// the cache-hierarchy state is flushed — a rebooted machine has no warm
// lines, so post-recovery requests pay cold-cache service costs until the
// working set re-warms. Server state (a KV store) survives, modelling
// durable or replicated data; what a crash loses is in-flight work and
// cache heat.
func (pl *Pipeline) Recover() {
	pl.down = false
	if pl.N.UDP != nil {
		pl.N.UDP.Down = false
	}
	pl.N.Cache.Flush()
	pl.Recoveries++
}

// SetGray sets the gray-failure service-time multiplier; k ≤ 1 restores
// healthy service.
func (pl *Pipeline) SetGray(slowdown float64) {
	if slowdown <= 1 {
		pl.slowdown = 0
		return
	}
	pl.slowdown = slowdown
}

// scaled applies the gray-failure multiplier to one service time.
func (pl *Pipeline) scaled(d sim.Time) sim.Time {
	if pl.slowdown > 1 {
		return sim.Time(float64(d) * pl.slowdown)
	}
	return d
}

// PendingDepth is the server's total request backlog: the software RX ring
// plus the core's own queue. Unbatched the ring is always empty, so this
// equals Core.QueueLen — admission control and the queue-depth gauge use
// it so both datapaths shed and report on the same signal.
func (pl *Pipeline) PendingDepth() int { return len(pl.rxq) + pl.N.Core.QueueLen() }

// StageUtilization is the utilization of the server's busier stage: the
// host core, or the offload core when it is busier. A two-stage server's
// capacity is set by its slower stage.
func (pl *Pipeline) StageUtilization() float64 {
	u := pl.N.Core.Utilization()
	if pl.Offload != nil {
		u = max(u, pl.Offload.Utilization())
	}
	return u
}

// Accept runs admission control on an arriving request and, if admitted,
// hands it to the host core (through the RX ring on the batched path). It
// reports false when the request must be shed; the caller still owns r.P
// then.
func (pl *Pipeline) Accept(r Req) bool {
	if pl.ShedQueue > 0 && pl.PendingDepth() >= pl.ShedQueue {
		return false
	}
	if pl.batched() {
		pl.enqueue(r)
	} else {
		pl.Submit(r)
	}
	return true
}

// Submit queues r as one host-core job; RX ring overflow drops it.
func (pl *Pipeline) Submit(r Req) {
	if pl.jobh > 0 && len(pl.jobq) == cap(pl.jobq) {
		// Full backing array with served slots in front: slide the live
		// requests down rather than grow.
		n := copy(pl.jobq, pl.jobq[pl.jobh:])
		clear(pl.jobq[n:])
		pl.jobq, pl.jobh = pl.jobq[:n], 0
	}
	pl.jobq = append(pl.jobq, r)
	j := pl.job
	if r.Traced {
		j.Start = func(sim.Time) { pl.Trace.Mark(r.ID, pl.N.Eng.Now(), pl.handleLabel) }
	}
	if !pl.N.Core.Submit(j) {
		// Refused at once: r is still the tail.
		pl.jobq[len(pl.jobq)-1] = Req{}
		pl.jobq = pl.jobq[:len(pl.jobq)-1]
		if r.Traced {
			pl.Trace.Note(r.ID, "request dropped: rx ring overflow")
		}
		r.P.DecRef()
	}
}

// serveQueued is the Run of every Submit job: it serves the queue head.
func (pl *Pipeline) serveQueued() sim.Time {
	r := pl.jobq[pl.jobh]
	pl.jobq[pl.jobh] = Req{}
	pl.jobh++
	if pl.jobh == len(pl.jobq) {
		pl.jobq, pl.jobh = pl.jobq[:0], 0
	}
	return pl.serveOne(r, 0)
}

// serveOne runs the handler on one request at its dispatch instant and
// closes the request's books: the per-request copied vectors are
// mass-freed (§3.2.2), the receipt is taken, and work between requests
// (completions, the next RX) is attributed to the rx bucket. It returns
// the request's (gray-scaled) service time. A request served after the
// node crashed dies with the process, costing no (dead) CPU. at is how far
// past the current instant the request's service starts (its offset in a
// batch): an offload stage the handler left is submitted when the
// request's host service ends, at + the returned time from now.
func (pl *Pipeline) serveOne(r Req, at sim.Time) sim.Time {
	if pl.down {
		pl.DownDrops++
		r.P.DecRef()
		return 0
	}
	m := pl.N.Meter
	pl.setReplyAddr(r.Src)
	pl.serve(r)
	pl.N.Arena.Reset()
	rec := m.TakeReceipt()
	pl.HostRec.Add(rec)
	if pl.observe != nil {
		pl.observe(r, rec)
	}
	m.SetCategory(costmodel.CatRx)
	d := pl.scaled(m.DrainTime())
	if st := pl.stage; st.run != nil {
		pl.stage = offStage{}
		pl.N.Eng.After(at+d, func() { pl.submitStage(st) })
	}
	return d
}

// enqueue parks a request in the software RX ring and makes sure a drainer
// job is pending. The ring honours the same bound as the core queue
// (Core.MaxQueue — the RX descriptor ring depth), with overflow counted in
// the same Dropped stat.
func (pl *Pipeline) enqueue(r Req) {
	c := pl.N.Core
	if c.MaxQueue > 0 && len(pl.rxq) >= c.MaxQueue {
		c.NoteDrop()
		if r.Traced {
			pl.Trace.Note(r.ID, "request dropped: rx ring overflow")
		}
		r.P.DecRef()
		return
	}
	r.enq = pl.N.Eng.Now()
	pl.rxq = append(pl.rxq, r)
	pl.armDrainer()
}

// armDrainer submits one drainer job unless one is already pending. The
// job carries ExternalWait: the drainer accounts each request's wait
// itself, because the job-level wait describes the drainer, not the
// requests it will serve.
func (pl *Pipeline) armDrainer() {
	if pl.drainerArmed {
		return
	}
	pl.drainerArmed = true
	if !pl.N.Core.Submit(sim.Job{ExternalWait: true, Run: pl.drain}) {
		pl.drainerArmed = false // queue bound hit; the backlog re-arms on next arrival
	}
}

// drain is one batched core job: it serves min(backlog, maxBurst) requests
// back to back, bracketing their replies in a TX batch flushed at the end,
// and returns the summed service time. Per-request accounting is kept
// exact: request i's queue wait is its time in the ring plus the service
// of the i−1 batch members ahead of it (AccountWait), and each request's
// receipt is taken by serveOne as usual — the flush's doorbell cycles land
// in the drain total so the core stays busy for every cycle charged.
func (pl *Pipeline) drain() sim.Time {
	pl.drainerArmed = false
	b := min(len(pl.rxq), pl.maxBurst)
	if b == 0 {
		return 0
	}
	m := pl.N.Meter
	t0 := pl.N.Eng.Now()
	// One poll-loop iteration for the whole burst: the share onFrame
	// withheld per frame (RxBatched).
	m.Charge(m.CPU.RxPollCy)
	flush := b > 1
	if flush {
		pl.N.UDP.BeginTxBatch()
	}
	var total, cum sim.Time
	for i := 0; i < b; i++ {
		r := pl.rxq[i]
		pl.N.Core.AccountWait(t0 - r.enq + cum)
		if r.Traced {
			pl.Trace.Mark(r.ID, t0, pl.handleLabel)
			if flush {
				pl.Trace.Note(r.ID, fmt.Sprintf("batched: burst=%d pos=%d", b, i))
			}
		}
		// Reply headers are written at send time inside the handler, so
		// pointing the stack at this request's source is sufficient even
		// though the TX batch flushes after the burst.
		d := pl.serveOne(r, cum)
		cum += d
		total += d
	}
	// Shift the served requests out, zeroing the tail so the backing array
	// does not pin buffers.
	n := copy(pl.rxq, pl.rxq[b:])
	clear(pl.rxq[n:])
	pl.rxq = pl.rxq[:n]
	if flush {
		prev := m.SetCategory(costmodel.CatTx)
		if err := pl.N.UDP.FlushTx(); err != nil {
			pl.Errors++
		}
		m.SetCategory(prev)
		total += pl.scaled(m.DrainTime())
	}
	pl.Batches++
	pl.BatchedReqs += uint64(b)
	pl.MaxBatch = max(pl.MaxBatch, b)
	if len(pl.rxq) > 0 {
		pl.armDrainer()
	}
	return total
}

// OffloadStage hands the running handler's serialize+tx stage to the
// offload core: once the host job's books are closed and its service time
// has elapsed, run is submitted there as a job with its own receipt,
// starting under CatSerialize with replies going back to src. If the
// offload queue is full the stage never runs: an error is counted and
// drop (when set) releases what run would have. A handler leaves at most
// one stage per host job. Callers build the closures only when Offload is
// set, so the host-only path allocates nothing for them.
func (pl *Pipeline) OffloadStage(src byte, run, drop func()) {
	if pl.stage.run != nil {
		panic("driver: two offload stages in one host job")
	}
	pl.stage = offStage{src: src, run: run, drop: drop}
}

// submitStage queues a deferred stage on the offload core.
func (pl *Pipeline) submitStage(st offStage) {
	if pl.Offload.Submit(sim.Job{Run: func() sim.Time { return pl.runStage(st) }}) {
		return
	}
	pl.Errors++
	if st.drop != nil {
		st.drop()
	}
}

// runStage runs one stage on the offload core. The meter is shared with
// the host core, so host work charged since the host's last drain (RX of
// frames that arrived meanwhile) is stashed first and put back after: the
// offload receipt and service time carry the stage's cycles only.
func (pl *Pipeline) runStage(st offStage) sim.Time {
	m := pl.N.Meter
	host := m.Stash()
	prev := m.SetCategory(costmodel.CatSerialize)
	pl.setReplyAddr(st.src)
	st.run()
	pl.N.Arena.Reset()
	d := m.DrainTime()
	pl.OffRec.Add(m.TakeReceipt())
	m.SetCategory(prev)
	m.Unstash(host)
	return d
}

// setReplyAddr points the stack's next sends at the requester's fabric
// address. Outside a fabric topology src is always zero, leaving the
// header bytes exactly as single-link testbeds always wrote them.
func (pl *Pipeline) setReplyAddr(src byte) {
	if pl.N.UDP != nil {
		pl.N.UDP.DstAddr = src
	}
}

// Reject sends the explicit rejection ShedReply(id) to src and reports
// whether the stack took it; traceID and label name the trace mark. It
// runs at frame-delivery or timer time, when the meter still carries
// whatever category the previous job left active, so the work is billed
// to CatShed explicitly — otherwise overload-regime breakdowns would smear
// shed cycles across unrelated buckets. A rejection costs the server only
// a header-sized send: shedding must stay cheap when the server cannot
// afford work.
func (pl *Pipeline) Reject(id uint64, src byte, traceID uint64, label string) bool {
	m := pl.N.Meter
	prev := m.SetCategory(costmodel.CatShed)
	defer m.SetCategory(prev)
	pl.setReplyAddr(src)
	if pl.Trace != nil {
		pl.Trace.Mark(traceID, pl.N.Eng.Now(), label)
	}
	reply := ShedReply(id)
	sim := mem.UnpinnedSimAddr(reply)
	var err error
	switch {
	case pl.seg != nil:
		err = pl.seg.SendContiguous(reply, sim)
	case pl.N.TCP != nil:
		err = pl.N.TCP.SendContiguous(reply, sim)
	default:
		// The UDP fast path: prebuilt reply, batched posting.
		err = pl.N.UDP.SendPrebuilt(reply, sim)
	}
	if err != nil {
		pl.ShedReplyErrs++
		return false
	}
	return true
}
