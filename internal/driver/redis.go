package driver

import (
	"fmt"

	"cornflakes/internal/baselines"
	"cornflakes/internal/core"
	"cornflakes/internal/costmodel"
	"cornflakes/internal/kvstore"
	"cornflakes/internal/mem"
	"cornflakes/internal/msgs"
	"cornflakes/internal/redis"
	"cornflakes/internal/trace"
	"cornflakes/internal/wire"
	"cornflakes/internal/workloads"
)

// RedisServer wires the mini-Redis onto a node's UDP stack. In ModeRESP
// requests are [8-byte id | RESP command] and replies [8-byte id | RESP
// reply]; in ModeCornflakes requests and replies are Cornflakes objects
// with a leading command byte, exactly like the KV application.
type RedisServer struct {
	N     *Node
	R     *redis.Server
	Store *kvstore.Store

	Errors uint64

	pl Pipeline
}

// NewRedisServer builds the server in the given mode.
func NewRedisServer(n *Node, mode redis.Mode) *RedisServer {
	store := kvstore.New(n.Alloc, n.Meter)
	s := &RedisServer{N: n, R: redis.New(store, mode), Store: store}
	s.pl.Init(n, trace.PhaseHandle, s.serve)
	n.UDP.SetRecvHandler(func(p *mem.Buf) { s.pl.Submit(Req{P: p}) })
	return s
}

// Preload loads records and clears metering state, exactly like
// KVServer.Preload (multi-segment values allocated non-contiguously).
func (s *RedisServer) Preload(recs []workloads.KV) { preload(s.N, s.Store, recs) }

// StageUtilization is the utilization of the server's host core.
func (s *RedisServer) StageUtilization() float64 { return s.pl.StageUtilization() }

func (s *RedisServer) serve(r Req) {
	p := r.P
	if s.R.Mode == redis.ModeRESP {
		defer p.DecRef()
		id, cmd, ok := redis.DecodeRESPRequest(p.Bytes())
		if !ok {
			s.Errors++
			return
		}
		reply, sim, ok := s.R.HandleRESP(id, cmd)
		if !ok {
			s.Errors++
			return
		}
		// The reply (already id-framed) goes out on the contiguous-buffer
		// datapath Redis uses (§6.1.3).
		if err := s.N.UDP.SendContiguous(reply, sim); err != nil {
			s.Errors++
		}
		return
	}
	s.handleCF(p)
}

func (s *RedisServer) handleCF(p *mem.Buf) {
	ctx := s.N.Ctx
	m := s.N.Meter
	if p.Len() < 2 {
		s.Errors++
		p.DecRef()
		return
	}
	op := p.Bytes()[0]
	p.TrimFront(1) // the frame is this request's alone

	m.SetCategory(costmodel.CatDeserialize)
	var schema *core.Schema
	switch op {
	case redis.CmdGet, redis.CmdLRange:
		schema = msgs.GetReqSchema
	case redis.CmdMGet:
		schema = msgs.GetMSchema
	case redis.CmdSet:
		schema = msgs.PutReqSchema
	default:
		s.Errors++
		p.DecRef()
		return
	}
	msg, err := ctx.Deserialize(schema, p)
	if err != nil {
		s.Errors++
		p.DecRef()
		return
	}
	defer msg.Release()
	req := redis.CFRequest{ID: msg.GetInt(0)}
	switch op {
	case redis.CmdMGet:
		for j := 0; j < msg.ListLen(1); j++ {
			req.Keys = append(req.Keys, msg.GetBytesElem(1, j))
		}
	case redis.CmdSet:
		req.Key, req.Val = msg.GetBytes(1), msg.GetBytes(2)
	default:
		req.Key = msg.GetBytes(1)
	}

	m.SetCategory(costmodel.CatApp)
	reply := s.R.HandleCF(op, req)
	m.SetCategory(costmodel.CatSerialize)
	var resp *core.Message
	switch {
	case reply.OK:
		put := msgs.NewPutResp(ctx)
		put.SetId(reply.ID)
		put.SetOk(1)
		resp = put.M
	case reply.Multi:
		list := msgs.NewGetListResp(ctx)
		list.SetId(reply.ID)
		for _, v := range reply.Vals {
			if v != nil {
				list.AppendVals(ctx.NewCFPtr(v.Bytes()))
			}
		}
		resp = list.M
	default:
		get := msgs.NewGetResp(ctx)
		get.SetId(reply.ID)
		if len(reply.Vals) == 1 && reply.Vals[0] != nil {
			get.SetVal(ctx.NewCFPtr(reply.Vals[0].Bytes()))
		}
		resp = get.M
	}
	if err := s.N.UDP.SendObject(resp); err != nil {
		s.Errors++
	}
	resp.Release()
	m.SetCategory(costmodel.CatTx)
}

// RedisClient encodes workload requests as Redis commands for either mode.
type RedisClient struct {
	Mode redis.Mode
	N    *Node
}

// NewRedisClient builds the codec.
func NewRedisClient(n *Node, mode redis.Mode) *RedisClient {
	return &RedisClient{Mode: mode, N: n}
}

// Steps implements loadgen.Client.
func (c *RedisClient) Steps(workloads.Request) int { return 1 }

// BuildStep implements loadgen.Client.
func (c *RedisClient) BuildStep(id uint64, req workloads.Request, _ int) []byte {
	m := c.N.Meter
	if c.Mode == redis.ModeRESP {
		switch req.Op {
		case workloads.OpGet:
			return redis.EncodeRESPRequest(m, id, []byte("GET"), req.Keys[0])
		case workloads.OpGetM:
			args := append([][]byte{[]byte("MGET")}, req.Keys...)
			return redis.EncodeRESPRequest(m, id, args...)
		case workloads.OpGetList:
			return redis.EncodeRESPRequest(m, id, []byte("LRANGE"), req.Keys[0], []byte("0"), []byte("-1"))
		default: // put
			return redis.EncodeRESPRequest(m, id, []byte("SET"), req.Keys[0], req.Vals[0])
		}
	}
	ctx := c.N.Ctx
	defer c.N.Arena.Reset()
	switch req.Op {
	case workloads.OpGet:
		msg := msgs.NewGetReq(ctx)
		msg.SetId(id)
		msg.SetKey(ctx.NewCFPtr(req.Keys[0]))
		return opFrame(redis.CmdGet, msg.Obj())
	case workloads.OpGetM:
		msg := msgs.NewGetM(ctx)
		msg.SetId(id)
		for _, k := range req.Keys {
			msg.AppendKeys(ctx.NewCFPtr(k))
		}
		return opFrame(redis.CmdMGet, msg.Obj())
	case workloads.OpGetList:
		msg := msgs.NewGetReq(ctx)
		msg.SetId(id)
		msg.SetKey(ctx.NewCFPtr(req.Keys[0]))
		return opFrame(redis.CmdLRange, msg.Obj())
	default:
		msg := msgs.NewPutReq(ctx)
		msg.SetId(id)
		msg.SetKey(ctx.NewCFPtr(req.Keys[0]))
		msg.SetVal(ctx.NewCFPtr(req.Vals[0]))
		return opFrame(redis.CmdSet, msg.Obj())
	}
}

// ResponseID implements loadgen.Client.
func (c *RedisClient) ResponseID(p []byte) (uint64, error) {
	if c.Mode == redis.ModeRESP {
		if len(p) < 8 {
			return 0, fmt.Errorf("driver: short redis response")
		}
		return wire.GetU64(p), nil
	}
	id, ok := core.PeekID(p)
	if !ok {
		return 0, fmt.Errorf("driver: bad cornflakes redis response")
	}
	return id, nil
}

// ParseRESPReply decodes a framed RESP reply for validation in tests.
func ParseRESPReply(m *costmodel.Meter, p []byte) (uint64, baselines.RESPValue, error) {
	if len(p) < 9 {
		return 0, baselines.RESPValue{}, fmt.Errorf("short reply")
	}
	id := wire.GetU64(p)
	v, _, err := baselines.RESPParse(p[8:], m)
	return id, v, err
}
