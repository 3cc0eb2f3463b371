package driver

import (
	"fmt"

	"cornflakes/internal/baselines"
	"cornflakes/internal/core"
	"cornflakes/internal/costmodel"
	"cornflakes/internal/kvstore"
	"cornflakes/internal/mem"
	"cornflakes/internal/msgs"
	"cornflakes/internal/netstack"
	"cornflakes/internal/trace"
	"cornflakes/internal/workloads"
)

// KVServer is the custom key-value store application of §6.1.2, serving
// get / multi-get / list / indexed-get / put requests with a pluggable
// serialization system. One instance runs per server core; the embedded
// Pipeline carries each request from arrival to reply, and the KV handlers
// below supply only the per-op work.
type KVServer struct {
	Pipeline
	Store *kvstore.Store
	Sys   System

	// UseSGArray switches Cornflakes to the non-combined serialize-and-send
	// path (the Table 5 ablation).
	UseSGArray bool

	// ShedWater is admission control on the pinned pool: an arriving
	// request that finds its occupancy ≥ ShedWater (a fraction) is shed
	// like one past ShedQueue — refuse work the send path could not
	// complete. Zero disables it.
	ShedWater float64

	// OnReceipt, when set, receives the host-core cycle breakdown of every
	// request (Figure 11).
	OnReceipt func(r costmodel.Receipt)

	// Adaptive, when set, adjusts the zero-copy threshold between requests
	// from observed metadata cache behaviour (the §7 dynamic-threshold
	// extension).
	Adaptive *core.AdaptiveThreshold

	// fb0 is the context's fallback count when the current request's
	// service began; vals is the host stage's scratch list of looked-up
	// values.
	fb0  uint64
	vals []*mem.Buf
}

// kvReply is what a KV handler's host stage (deserialize, app lookups)
// hands its serialize+tx stage: the op, the request id (baselines) or the
// decoded request (Cornflakes, released after the send), and the looked-up
// values (one, possibly nil, for get/index).
type kvReply struct {
	op   byte
	id   uint64
	req  *core.Message
	vals []*mem.Buf
}

// NewKVServer attaches a KV server to the node's stack: UDP normally, or
// the TCP-lite stack when the node was built with one (the fault-injection
// soak drives the KV workload over lossy TCP links). Protobuf and Cap'n
// Proto reply through UDP-only sends, so they panic on a TCP node.
func NewKVServer(n *Node, sys System) *KVServer {
	if sys.docNeedsUDP() {
		n.requireUDP(sys.String() + " KV server")
	}
	s := newKVServer(n, sys)
	n.transport().SetRecvHandler(s.onPayload)
	return s
}

// NewSegmentedKVServer attaches a KV server whose requests and responses
// travel through the segmentation layer: responses of any size are
// supported, so e.g. a whole CDN object ships in one exchange instead of
// one request per jumbo-frame sub-object.
func NewSegmentedKVServer(n *Node, sys System) *KVServer {
	s := newKVServer(n, sys)
	s.seg = netstack.NewSegmenter(n.UDP)
	s.seg.SetRecvHandler(s.onPayload)
	return s
}

func newKVServer(n *Node, sys System) *KVServer {
	s := &KVServer{Store: kvstore.New(n.Alloc, n.Meter), Sys: sys}
	s.Init(n, trace.PhaseHandle, s.serve)
	s.observe = s.observeReceipt
	return s
}

// Preload loads records into the store and clears measurement state so
// preloading work is not billed to any request.
func (s *KVServer) Preload(recs []workloads.KV) { preload(s.N, s.Store, recs) }

// preload is the KV and Redis servers' shared preload.
//
// Allocation is interleaved across records segment-by-segment so that the
// buffers of one multi-segment value are non-contiguous in memory — the
// paper's store is explicit that "individual values are allocated
// non-contiguously" (§5.1), and contiguity would let the prefetcher make
// both copies and refcount walks unrealistically cheap.
func preload(n *Node, store *kvstore.Store, recs []workloads.KV) {
	maxSegs := 0
	for _, r := range recs {
		if len(r.Vals) > maxSegs {
			maxSegs = len(r.Vals)
		}
	}
	bufs := make([][]*mem.Buf, len(recs))
	for seg := 0; seg < maxSegs; seg++ {
		for i := range recs {
			if seg >= len(recs[i].Vals) || len(recs[i].Vals[seg]) == 0 {
				continue
			}
			v := recs[i].Vals[seg]
			b := n.Alloc.Alloc(len(v))
			copy(b.Bytes(), v)
			bufs[i] = append(bufs[i], b)
		}
	}
	for i, r := range recs {
		store.PutBuf(r.Key, bufs[i]...)
	}
	n.Meter.Drain()
	n.Meter.TakeReceipt()
}

// EnableBatching turns on the batched RX/TX datapath with the given burst
// cap and tells the UDP stack to split its RX charge accordingly. A cap of
// 1 (or less) selects the unbatched path — that is the adaptive floor, and
// the determinism gate relies on it being bit-identical.
func (s *KVServer) EnableBatching(maxBurst int) {
	s.maxBurst = maxBurst
	if s.N.UDP != nil {
		s.N.UDP.RxBatched = s.batched()
	}
}

// Deliver injects a request payload directly (used by the multi-core
// dispatcher, which performs its own RX handling).
func (s *KVServer) Deliver(p *mem.Buf) { s.onPayload(p) }

// onPayload is the rx stage: capture the requester's address, peek the
// request id when tracing (unmetered — tracing is observability, not
// modelled work), and hand the request to admission. A shed request is
// answered at frame-delivery time, before it consumes a core slot, so the
// rejection costs only the peek and a header-sized send.
func (s *KVServer) onPayload(p *mem.Buf) {
	r := Req{P: p}
	if s.N.UDP != nil {
		r.Src = s.N.UDP.RxSrc
	}
	if s.Trace != nil {
		r.ID, r.Traced = s.reqID(p.Bytes())
	}
	if !(s.ShedWater > 0 && s.N.Alloc.Occupancy() >= s.ShedWater) && s.Accept(r) {
		return
	}
	defer p.DecRef()
	if id, ok := s.reqID(p.Bytes()); ok {
		s.shedReplyTo(id, r.Src)
	} else {
		// Unparseable request: no id to address, nothing to reply to.
		s.Shed++
		s.ShedReplyErrs++
	}
}

// reqID peeks the request id out of a framed request payload (op byte +
// serialized body) without a metered deserialization.
func (s *KVServer) reqID(p []byte) (uint64, bool) {
	if len(p) < 2 {
		return 0, false
	}
	return s.Sys.PeekID(p[1:])
}

// shedReplyTo sends the explicit rejection for a request id, counting it.
// Also used mid-handling when a put's allocation fails: the client gets a
// shed reply instead of a dropped request.
func (s *KVServer) shedReplyTo(id uint64, src byte) {
	s.Shed++
	s.Reject(id, src, id, trace.PhaseShed)
}

// serve is the host stage of one request at its dispatch instant.
func (s *KVServer) serve(r Req) {
	s.Handled++
	s.fb0 = s.N.Ctx.Fallbacks
	p := r.P
	if p.Len() < 2 {
		s.Errors++
		p.DecRef()
		return
	}
	op := p.Bytes()[0]
	if s.Sys == SysCornflakes {
		p.TrimFront(1) // the frame is this request's alone
		s.handleCF(op, p, r.Src)
		return
	}
	s.handleDoc(op, p, r.Src)
}

// observeReceipt attributes a served request's receipt to its flow (by the
// id peeked at arrival) and feeds the adaptive threshold.
func (s *KVServer) observeReceipt(r Req, rec costmodel.Receipt) {
	if s.OnReceipt != nil {
		s.OnReceipt(rec)
	}
	if s.Trace != nil {
		if r.Traced {
			if fb := s.N.Ctx.Fallbacks - s.fb0; fb > 0 {
				s.Trace.Note(r.ID, fmt.Sprintf("copy fallback: %d field(s) demoted under pressure", fb))
			}
			// Run executes synchronously at dispatch, so Now() is still the
			// dispatch instant the service spans tile from.
			s.Trace.ServiceReceipt(r.ID, s.N.Eng.Now(), rec)
		} else {
			s.Trace.AggregateOnly(rec)
		}
	}
	if s.Adaptive != nil {
		s.Adaptive.Observe()
	}
}

// reply runs the serialize+tx stage: inline on the host core, or as a job
// on the offload core. The offload stage may run after later host jobs, so
// it gets its own copy of the value list and holds a reference on each
// value until it has been sent — a put in between cannot free it.
func (s *KVServer) reply(r kvReply, src byte) {
	if s.Offload == nil {
		s.emit(r)
		return
	}
	o := r
	o.vals = append([]*mem.Buf(nil), r.vals...)
	hold(o.vals, (*mem.Buf).IncRef)
	s.OffloadStage(src, func() {
		s.emit(o)
		hold(o.vals, (*mem.Buf).DecRef)
	}, func() {
		if o.req != nil {
			o.req.Release()
		}
		hold(o.vals, (*mem.Buf).DecRef)
	})
}

// hold applies a refcount operation to every non-nil value.
func hold(vals []*mem.Buf, op func(*mem.Buf)) {
	for _, v := range vals {
		if v != nil {
			op(v)
		}
	}
}

// handleCF is the Cornflakes host stage: deserialize, then the app
// lookup (or store update) under CatApp.
func (s *KVServer) handleCF(op byte, body *mem.Buf, src byte) {
	m := s.N.Meter
	m.SetCategory(costmodel.CatDeserialize)
	schema := reqSchema(op)
	if schema == nil {
		s.Errors++
		body.DecRef()
		return
	}
	req, err := s.N.Ctx.Deserialize(schema, body)
	if err != nil {
		s.Errors++
		body.DecRef()
		return
	}
	m.SetCategory(costmodel.CatApp)
	r := kvReply{op: op, req: req}
	switch op {
	case OpByteGet:
		s.vals = append(s.vals[:0], s.Store.Get(req.GetBytes(1)))
	case OpByteGetM:
		s.vals = s.vals[:0]
		for j, n := 0, req.ListLen(1); j < n; j++ {
			s.vals = append(s.vals, s.Store.Get(req.GetBytesElem(1, j)))
		}
	case OpByteGetList:
		s.vals = append(s.vals[:0], s.Store.GetList(req.GetBytes(1))...)
	case OpByteGetIndex:
		s.vals = append(s.vals[:0], s.Store.GetIndex(req.GetBytes(1), int(req.GetInt(2))))
	case OpBytePut:
		if err := s.Store.TryPut(req.GetBytes(1), req.GetBytes(2)); err != nil {
			// Pinned pool full: the store is unchanged; tell the client
			// explicitly instead of dropping the request.
			m.SetCategory(costmodel.CatTx)
			s.shedReplyTo(req.GetInt(0), src)
			req.Release()
			return
		}
		s.vals = s.vals[:0]
	}
	r.vals = s.vals
	s.reply(r, src)
}

// handleDoc is the baseline-serializer host stage.
func (s *KVServer) handleDoc(op byte, p *mem.Buf, src byte) {
	m := s.N.Meter
	defer p.DecRef()
	schema := reqSchema(op)
	if schema == nil {
		s.Errors++
		return
	}
	m.SetCategory(costmodel.CatDeserialize)
	req, err := s.Sys.DecodeDoc(schema, p.Bytes()[1:], p.SimAddr()+1, m)
	if err != nil {
		s.Errors++
		return
	}
	r := kvReply{op: op, id: req.F[0].I}
	m.SetCategory(costmodel.CatApp)
	switch op {
	case OpByteGet:
		s.vals = append(s.vals[:0], s.Store.Get(docBytes(req, 1)))
	case OpByteGetM:
		s.vals = s.vals[:0]
		for _, k := range req.F[1].B {
			s.vals = append(s.vals, s.Store.Get(k))
		}
	case OpByteGetList:
		s.vals = append(s.vals[:0], s.Store.GetList(docBytes(req, 1))...)
	case OpByteGetIndex:
		s.vals = append(s.vals[:0], s.Store.GetIndex(docBytes(req, 1), int(req.F[2].I)))
	case OpBytePut:
		if err := s.Store.TryPut(docBytes(req, 1), docBytes(req, 2)); err != nil {
			m.SetCategory(costmodel.CatTx)
			s.shedReplyTo(r.id, src)
			return
		}
		s.vals = s.vals[:0]
	}
	r.vals = s.vals
	s.reply(r, src)
}

// reqSchema maps an op byte to its request schema.
func reqSchema(op byte) *core.Schema {
	switch op {
	case OpByteGet:
		return msgs.GetReqSchema
	case OpByteGetM:
		return msgs.GetMSchema
	case OpByteGetList, OpByteGetIndex:
		return msgs.GetListReqSchema
	case OpBytePut:
		return msgs.PutReqSchema
	}
	return nil
}

// docBytes safely extracts a scalar bytes field from a decoded request.
func docBytes(d *baselines.Doc, i int) []byte {
	if i < len(d.F) && len(d.F[i].B) > 0 {
		return d.F[i].B[0]
	}
	return nil
}

// emit is the serialize+tx stage: build the response and send it.
func (s *KVServer) emit(r kvReply) {
	m := s.N.Meter
	m.SetCategory(costmodel.CatSerialize)
	if s.Sys != SysCornflakes {
		if err := s.Sys.SendDoc(s.N, buildDoc(r)); err != nil {
			s.Errors++
		}
		m.SetCategory(costmodel.CatTx)
		return
	}
	resp := s.buildCF(r)
	s.sendObj(resp)
	m.SetCategory(costmodel.CatTx)
	resp.Release()
	r.req.Release()
}

// buildCF builds the Cornflakes response: values at or above the zero-copy
// threshold become scatter-gather pointers into the store.
func (s *KVServer) buildCF(r kvReply) *core.Message {
	ctx := s.N.Ctx
	switch r.op {
	case OpByteGetM:
		resp := msgs.NewGetM(ctx)
		resp.SetId(r.req.GetInt(0))
		for _, v := range r.vals {
			if v != nil {
				resp.AppendVals(ctx.NewCFPtr(v.Bytes()))
			}
		}
		return resp.M
	case OpByteGetList:
		resp := msgs.NewGetListResp(ctx)
		resp.SetId(r.req.GetInt(0))
		for _, v := range r.vals {
			resp.AppendVals(ctx.NewCFPtr(v.Bytes()))
		}
		return resp.M
	case OpBytePut:
		resp := msgs.NewPutResp(ctx)
		resp.SetId(r.req.GetInt(0))
		resp.SetOk(1)
		return resp.M
	default: // get, indexed get
		resp := msgs.NewGetResp(ctx)
		resp.SetId(r.req.GetInt(0))
		if v := r.vals[0]; v != nil {
			resp.SetVal(ctx.NewCFPtr(v.Bytes()))
		}
		return resp.M
	}
}

// buildDoc builds the baseline response document.
func buildDoc(r kvReply) *baselines.Doc {
	var d *baselines.Doc
	switch r.op {
	case OpByteGetM:
		d = baselines.NewDoc(msgs.GetMSchema)
		d.SetInt(0, r.id)
		for _, v := range r.vals {
			if v != nil {
				d.AddBytes(2, v.Bytes(), v.SimAddr())
			}
		}
	case OpByteGetList:
		d = baselines.NewDoc(msgs.GetListRespSchema)
		d.SetInt(0, r.id)
		for _, v := range r.vals {
			d.AddBytes(1, v.Bytes(), v.SimAddr())
		}
	case OpBytePut:
		d = baselines.NewDoc(msgs.PutRespSchema)
		d.SetInt(0, r.id)
		d.SetInt(1, 1)
	default: // get, indexed get
		d = baselines.NewDoc(msgs.GetRespSchema)
		d.SetInt(0, r.id)
		if v := r.vals[0]; v != nil {
			d.SetBytes(1, v.Bytes(), v.SimAddr())
		}
	}
	return d
}

// sendObj transmits a Cornflakes object on the configured path. The
// segmentation and SG-array ablation paths are UDP-only; otherwise the
// node's transport does the combined serialize-and-send.
func (s *KVServer) sendObj(obj core.Obj) {
	var err error
	switch {
	case s.seg != nil:
		err = s.seg.SendObjectSegmented(obj)
	case s.UseSGArray:
		err = s.N.UDP.SendObjectViaSGArray(obj)
	default:
		err = s.N.transport().SendObject(obj)
	}
	if err != nil {
		s.Errors++
	}
}
