package rpc

import (
	"cornflakes/internal/costmodel"
	"cornflakes/internal/driver"
	"cornflakes/internal/mem"
	"cornflakes/internal/sim"
)

// Service is one tier of a call graph: it serves KindCall frames on its
// node's core, optionally fans out to backend services and fans the
// replies back in, and answers its caller with a KindReply (or a shed
// frame when it rejects, a backend fails, or its fan-in deadline fires).
// All serialization work — decoding calls, encoding downstream calls and
// upstream replies — runs through the node's costmodel meter, so a chain
// of Services reproduces per-hop marshalling cost end to end. The embedded
// driver.Pipeline carries admission (ShedQueue), the host-core jobs, the
// optional NIC-side Offload core and the per-hop Trace marks; the Service
// supplies the call, child-reply and notify handlers.
type Service struct {
	driver.Pipeline
	Sys  driver.System
	Name string
	// Hop is this tier's depth in the graph (1 = frontend). Stamped into
	// outgoing frames and trace phase labels.
	Hop int
	// Addr is this service's fabric address (for diagnostics).
	Addr byte

	// Backends are the fabric addresses this tier calls before it can
	// answer. Empty means leaf: the tier replies directly.
	Backends []byte
	// CallTimeout bounds the fan-in wait for backend replies. Zero waits
	// forever (the client's own retry deadline is then the only bound).
	CallTimeout sim.Time
	// AppCycles is the modelled application work per handled call, charged
	// to CatApp between deserialize and the downstream/reply serialize.
	AppCycles float64
	// FwdBytes / RespBytes size the payloads of downstream calls and
	// upstream replies.
	FwdBytes  int
	RespBytes int
	// NotifyAddr, when nonzero, makes this tier emit a one-way KindNotify
	// frame (NotifyBytes of payload) to that address after every reply it
	// sends — completion events feeding a logging/metrics sink.
	NotifyAddr  byte
	NotifyBytes int

	codec codec

	// pend maps outstanding downstream call ids to their fan-in state;
	// expired remembers call ids abandoned by a fan-in timeout or sibling
	// failure so their late replies can be told apart from garbage.
	pend     map[uint64]*inflight
	expired  map[uint64]struct{}
	nextCall uint64

	// Stats (Handled, Shed and Errors live on the pipeline: calls admitted
	// to the host core, calls rejected at admission, malformed frames and
	// decode/send failures). The child-call ledger is exact after the
	// engine quiesces: ChildCalls == ChildReplies + ChildSheds +
	// ChildAbandoned, and LateChildReplies ≤ ChildAbandoned (a late reply is
	// the wasted work of an abandoned child arriving anyway).
	RepliesSent      uint64 // KindReply frames sent upstream
	FailsSent        uint64 // shed frames sent upstream (timeout/backend failure)
	NotifiesSent     uint64
	NotifiesRecv     uint64 // one-way frames processed as a sink
	ChildCalls       uint64
	ChildReplies     uint64 // backend replies fanned in while still wanted
	ChildSheds       uint64 // backend rejections/failures fanned in
	ChildAbandoned   uint64 // children written off by fan-in timeout or sibling failure
	ChildTimeouts    uint64 // fan-in deadlines that fired
	LateChildReplies uint64 // replies from abandoned children (wasted work)

	fwdBuf  []byte
	respBuf []byte
	noteBuf []byte
	keyBuf  []byte

	// freeInf recycles fan-in states once their call tree is settled.
	freeInf []*inflight
}

// inflight is the fan-in state for one upstream call awaiting backends.
type inflight struct {
	h        Header // the upstream call being served
	src      byte   // who to answer
	await    int
	failed   bool
	timer    sim.Timer
	children []uint64
	// timeout is the fan-in deadline callback, bound once per struct.
	timeout func()
}

// newInflight takes a fan-in state off the free list (or allocates one).
func (s *Service) newInflight(h Header, src byte) *inflight {
	var inf *inflight
	if n := len(s.freeInf); n > 0 {
		inf = s.freeInf[n-1]
		s.freeInf[n-1] = nil
		s.freeInf = s.freeInf[:n-1]
	} else {
		inf = &inflight{}
		inf.timeout = func() { s.onFanInTimeout(inf) }
	}
	inf.h, inf.src, inf.await = h, src, len(s.Backends)
	return inf
}

// recycle parks a settled fan-in state: its answer or failure has gone
// upstream, no pending-table entry points at it any more, and its timer
// has fired or been cancelled.
func (s *Service) recycle(inf *inflight) {
	inf.failed = false
	inf.timer = sim.Timer{}
	inf.children = inf.children[:0]
	s.freeInf = append(s.freeInf, inf)
}

// NewService wires a Service onto a node's UDP stack. The node must come
// from the same Rack as its peers; backends and timeouts are configured on
// the returned value before load starts.
func NewService(n *driver.Node, sys driver.System, name string, hop int, addr byte) *Service {
	s := &Service{
		Sys: sys, Name: name, Hop: hop, Addr: addr,
		FwdBytes: 64, RespBytes: 64, NotifyBytes: 32,
		codec:   codec{sys: sys, n: n},
		pend:    make(map[uint64]*inflight),
		expired: make(map[uint64]struct{}),
		keyBuf:  []byte(name),
	}
	s.Init(n, s.phase("handle"), s.serve)
	n.UDP.SetRecvHandler(s.onPayload)
	return s
}

func (s *Service) newCallID() uint64 {
	s.nextCall++
	return uint64(s.Addr)<<56 | s.nextCall
}

func (s *Service) phase(what string) string {
	return "rpc.h" + string('0'+byte(s.Hop)) + "." + what
}

// onPayload is the rx stage. Header inspection and fan-in bookkeeping run
// unmetered at frame-delivery time (they model the id-peek a real server
// does before committing a core to the request); everything serialized
// goes through a metered core job.
func (s *Service) onPayload(p *mem.Buf) {
	src := s.N.UDP.RxSrc
	b := p.Bytes()
	if id, ok := driver.ShedID(b); ok {
		p.DecRef()
		s.onChildFailure(id)
		return
	}
	if len(b) < HeaderLen {
		s.Errors++
		p.DecRef()
		return
	}
	h := DecodeHeader(b)
	switch h.Kind {
	case KindCall:
		if !s.Accept(driver.Req{P: p, ID: h.RootID, Traced: s.Trace != nil, Src: src}) {
			s.failTo(h.CallID, h.RootID, src, "shed")
			s.Shed++
			p.DecRef()
		}
	case KindReply:
		s.onChildReply(h, p, src)
	case KindNotify:
		s.Submit(driver.Req{P: p, Src: src})
	default:
		s.Errors++
		p.DecRef()
	}
}

// serve is the host core's work for one frame, by kind:
//   - a call: metered deserialize, app work, then either the reply (leaf)
//     or the downstream fan-out;
//   - a child reply: deserialize, and the upstream reply if it completed
//     the fan-in (r.Arg carries the finished *inflight);
//   - a notify: deserialize as a sink — there is nothing to answer.
func (s *Service) serve(r driver.Req) {
	m := s.N.Meter
	h := DecodeHeader(r.P.Bytes())
	m.SetCategory(costmodel.CatDeserialize)
	switch h.Kind {
	case KindCall:
		s.Handled++
		if err := s.codec.decodeBody(r.P, false); err != nil {
			s.Errors++
		}
		m.SetCategory(costmodel.CatApp)
		m.Charge(s.AppCycles)
		if len(s.Backends) == 0 {
			s.finishCall(h, r.Src)
		} else {
			s.callChildren(h, r.Src)
		}
	case KindReply:
		if err := s.codec.decodeBody(r.P, true); err != nil {
			s.Errors++
		}
		if inf, done := r.Arg.(*inflight); done {
			s.finishCall(inf.h, inf.src)
			s.recycle(inf)
		}
	default:
		if err := s.codec.decodeBody(r.P, false); err != nil {
			s.Errors++
		}
		s.NotifiesRecv++
	}
}

// finishCall sends the upstream reply (and the optional one-way notify).
// With an offload engine configured, the marshalling runs there instead of
// on the host core — the host's receipt for this call is already closed by
// the time the offload job executes, so the cycles land in OffRec. An
// offload ring overflow means the reply is never built; the caller's
// deadline machinery covers it.
func (s *Service) finishCall(h Header, src byte) {
	if s.Offload != nil {
		s.OffloadStage(src, func() { s.emitReply(h, src) }, nil)
		return
	}
	s.emitReply(h, src)
}

func (s *Service) emitReply(h Header, src byte) {
	m := s.N.Meter
	m.SetCategory(costmodel.CatSerialize)
	if s.respBuf == nil {
		s.respBuf = make([]byte, s.RespBytes)
	}
	rh := Header{Kind: KindReply, Method: h.Method, Hop: byte(s.Hop), CallID: h.CallID, RootID: h.RootID}
	frame := s.codec.buildReply(rh, s.respBuf)
	m.SetCategory(costmodel.CatTx)
	s.N.UDP.DstAddr = src
	if err := s.N.UDP.SendContiguous(frame, mem.UnpinnedSimAddr(frame)); err != nil {
		s.Errors++
	} else {
		s.RepliesSent++
	}
	if s.Trace != nil {
		s.Trace.Mark(h.RootID, s.N.Eng.Now(), s.phase("reply"))
	}
	if s.NotifyAddr != 0 {
		if s.noteBuf == nil {
			s.noteBuf = make([]byte, s.NotifyBytes)
		}
		m.SetCategory(costmodel.CatSerialize)
		nh := Header{Kind: KindNotify, Method: h.Method, Hop: byte(s.Hop), CallID: s.newCallID(), RootID: h.RootID}
		nf := s.codec.buildCall(nh, s.keyBuf, s.noteBuf)
		m.SetCategory(costmodel.CatTx)
		s.N.UDP.DstAddr = s.NotifyAddr
		if err := s.N.UDP.SendContiguous(nf, mem.UnpinnedSimAddr(nf)); err != nil {
			s.Errors++
		} else {
			s.NotifiesSent++
		}
	}
}

// callChildren fans the call out to every backend with fresh call ids and
// arms the fan-in deadline. With offload, the downstream marshalling and
// TX run on the offload engine (the pending-table registration rides along
// — single-threaded engine, so the bookkeeping is safe there).
func (s *Service) callChildren(h Header, src byte) {
	if s.Offload != nil {
		s.OffloadStage(src, func() { s.dispatchChildren(h, src) }, nil)
		return
	}
	s.dispatchChildren(h, src)
}

func (s *Service) dispatchChildren(h Header, src byte) {
	m := s.N.Meter
	if s.fwdBuf == nil {
		s.fwdBuf = make([]byte, s.FwdBytes)
	}
	inf := s.newInflight(h, src)
	for _, addr := range s.Backends {
		cid := s.newCallID()
		inf.children = append(inf.children, cid)
		s.pend[cid] = inf
		s.ChildCalls++
		ch := Header{Kind: KindCall, Method: h.Method, Hop: byte(s.Hop), CallID: cid, RootID: h.RootID}
		m.SetCategory(costmodel.CatSerialize)
		frame := s.codec.buildCall(ch, s.keyBuf, s.fwdBuf)
		m.SetCategory(costmodel.CatTx)
		s.N.UDP.DstAddr = addr
		if err := s.N.UDP.SendContiguous(frame, mem.UnpinnedSimAddr(frame)); err != nil {
			s.Errors++
		}
	}
	if s.CallTimeout > 0 {
		inf.timer = s.N.Eng.After(s.CallTimeout, inf.timeout)
	}
}

// onChildReply resolves a backend reply against the pending table. Replies
// for abandoned children are classified as late — the wasted-work ledger —
// and dropped at the header peek, before any deserialize is paid (the
// pending-table miss is exactly the cheap check a real fan-in does first).
// A wanted reply's decode runs as a host-core job; the one that completes
// the fan-in carries the upstream reply with it. Host ring overflow loses
// the reply after it was counted; the upstream caller's own deadline
// covers the call.
func (s *Service) onChildReply(h Header, p *mem.Buf, src byte) {
	inf, ok := s.resolve(h.CallID)
	if !ok {
		p.DecRef()
		return
	}
	s.ChildReplies++
	inf.await--
	r := driver.Req{P: p, Src: src}
	if inf.await == 0 {
		inf.timer.Cancel()
		r.Arg = inf
	}
	s.Submit(r)
}

// resolve takes a child call id off the pending table. A miss is either a
// late answer from an abandoned child (counted in LateChildReplies) or
// garbage.
func (s *Service) resolve(id uint64) (*inflight, bool) {
	inf, ok := s.pend[id]
	if !ok {
		if _, late := s.expired[id]; late {
			delete(s.expired, id)
			s.LateChildReplies++
		} else {
			s.Errors++
		}
		return nil, false
	}
	delete(s.pend, id)
	return inf, true
}

// onChildFailure handles a shed frame from a backend: the call tree under
// this request cannot complete, so fail fast — cancel the deadline, write
// off the surviving siblings, and propagate the failure upstream.
func (s *Service) onChildFailure(id uint64) {
	inf, ok := s.resolve(id)
	if !ok {
		return
	}
	s.ChildSheds++
	inf.await--
	if inf.failed {
		return
	}
	inf.failed = true
	inf.timer.Cancel()
	s.abandonSiblings(inf)
	s.failTo(inf.h.CallID, inf.h.RootID, inf.src, "fail")
	s.recycle(inf)
}

// onFanInTimeout fires when backends are too slow: every still-pending
// child is abandoned (its eventual reply becomes late/wasted work) and the
// upstream caller gets a failure instead of silence.
func (s *Service) onFanInTimeout(inf *inflight) {
	if inf.await == 0 || inf.failed {
		return
	}
	inf.failed = true
	s.ChildTimeouts++
	s.abandonSiblings(inf)
	s.failTo(inf.h.CallID, inf.h.RootID, inf.src, "timeout")
	s.recycle(inf)
}

func (s *Service) abandonSiblings(inf *inflight) {
	for _, cid := range inf.children {
		if s.pend[cid] == inf {
			delete(s.pend, cid)
			s.expired[cid] = struct{}{}
			s.ChildAbandoned++
			inf.await--
		}
	}
}

// failTo sends the 9-byte shed frame for an upstream call id (billed to
// CatShed by the pipeline, like KVServer's rejections).
func (s *Service) failTo(callID, rootID uint64, src byte, why string) {
	if s.Reject(callID, src, rootID, s.phase(why)) {
		s.FailsSent++
	} else {
		s.Errors++
	}
}

// PendingChildren reports the outstanding fan-in entries (zero once the
// engine quiesces and every call tree resolved or timed out).
func (s *Service) PendingChildren() int { return len(s.pend) }

// ChildLedgerExact verifies the fan-out disposal invariant after quiesce.
func (s *Service) ChildLedgerExact() bool {
	return s.ChildCalls == s.ChildReplies+s.ChildSheds+s.ChildAbandoned &&
		s.LateChildReplies <= s.ChildAbandoned
}
