package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/maphash"
	"math/rand/v2"

	"cornflakes/internal/baselines"
	"cornflakes/internal/cachesim"
	"cornflakes/internal/core"
	"cornflakes/internal/costmodel"
	"cornflakes/internal/driver"
	"cornflakes/internal/loadgen"
	"cornflakes/internal/mem"
	"cornflakes/internal/msgs"
	"cornflakes/internal/sim"
	"cornflakes/internal/workloads"
)

// checker sits between loadgen and the program's client. It times every
// request from its due virtual time (the DES sends each request exactly
// when due, so generator lag is zero) and, on KV workloads, decodes every
// reply through the system's public codec and checks the value against
// everything ever stored under the key.
type checker struct {
	eng    *sim.Engine
	warmup sim.Time
	// t, when set, times each verification as a bench.check span.
	t *tracer

	// reqs[id-base] is the request sent under wire id id; ids are issued
	// consecutively by the single client.
	base uint64
	reqs []sentReq
	// lat holds the latency of every measured request, in simulated time.
	lat []sim.Time
	// wrong describes replies that failed verification.
	wrong []string

	kv *kvIndex // nil on workloads whose replies carry no values
}

type sentReq struct {
	start sim.Time
	key   int32
	op    workloads.Op
	done  bool
}

// kvIndex knows, for every key, the hash of each value the store may hold:
// the preloaded value and every put the generator issued.
type kvIndex struct {
	sys      driver.System
	seed     maphash.Seed
	keys     map[string]int32
	accepted [][]uint64
	// ctx and meter decode replies on their own one-line cache model, so
	// checking touches no simulated node; their cycles are discarded.
	ctx   *core.Ctx
	meter *costmodel.Meter
}

func newRPCChecker() *checker { return &checker{} }

func newKVChecker(sys driver.System, recs []workloads.KV) *checker {
	// A one-line cache at every level: the checker's own simulated cycles
	// are discarded, so the model only has to be as cheap as possible.
	line := cachesim.LevelConfig{Size: cachesim.LineSize, Ways: 1}
	small := cachesim.Config{L1: line, L2: line, L3: line}
	meter := costmodel.NewMeter(costmodel.DefaultCPU(), cachesim.New(small))
	ix := &kvIndex{
		sys:      sys,
		seed:     maphash.MakeSeed(),
		keys:     make(map[string]int32, len(recs)),
		accepted: make([][]uint64, len(recs)),
		ctx:      core.NewCtx(mem.NewAllocator(), mem.NewArena(64<<10), meter),
		meter:    meter,
	}
	for i, r := range recs {
		ix.keys[string(r.Key)] = int32(i)
		ix.accepted[i] = []uint64{ix.hash(r.Vals)}
	}
	return &checker{kv: ix}
}

// hash digests a value list, length-prefixing each element so that
// different splits of the same bytes differ.
func (ix *kvIndex) hash(vals [][]byte) uint64 {
	var h maphash.Hash
	h.SetSeed(ix.seed)
	var n [8]byte
	for _, v := range vals {
		binary.LittleEndian.PutUint64(n[:], uint64(len(v)))
		h.Write(n[:])
		h.Write(v)
	}
	return h.Sum64()
}

// start arms the checker for one run on eng; t may be nil.
func (c *checker) start(eng *sim.Engine, warmup sim.Time, t *tracer) {
	c.eng, c.warmup, c.t = eng, warmup, t
}

// wrapGen records the value of every put the generator issues.
func (c *checker) wrapGen(g workloads.Generator) workloads.Generator {
	if c.kv == nil {
		return g
	}
	return recordingGen{Generator: g, ix: c.kv}
}

type recordingGen struct {
	workloads.Generator
	ix *kvIndex
}

func (g recordingGen) Next(r *rand.Rand) workloads.Request {
	req := g.Generator.Next(r)
	if req.Op == workloads.OpPut {
		if k, ok := g.ix.keys[string(req.Keys[0])]; ok {
			g.ix.accepted[k] = append(g.ix.accepted[k], g.ix.hash(req.Vals))
		}
	}
	return req
}

// wrapClient returns the loadgen.Client that records and verifies around
// inner.
func (c *checker) wrapClient(inner loadgen.Client) loadgen.Client {
	return &checkingClient{Client: inner, c: c}
}

type checkingClient struct {
	loadgen.Client
	c *checker
}

func (cc *checkingClient) BuildStep(id uint64, req workloads.Request, step int) []byte {
	c := cc.c
	if len(c.reqs) == 0 {
		c.base = id
	}
	if id-c.base != uint64(len(c.reqs)) {
		c.wrong = append(c.wrong, fmt.Sprintf("request id %d out of sequence", id))
	}
	r := sentReq{start: c.eng.Now(), key: -1, op: req.Op}
	if c.kv != nil && len(req.Keys) > 0 {
		if k, ok := c.kv.keys[string(req.Keys[0])]; ok {
			r.key = k
		}
	}
	c.reqs = append(c.reqs, r)
	return cc.Client.BuildStep(id, req, step)
}

func (cc *checkingClient) ResponseID(p []byte) (uint64, error) {
	id, err := cc.Client.ResponseID(p)
	if err != nil {
		return id, err
	}
	if t := cc.c.t; t != nil {
		s := t.enter("bench.check")
		cc.c.verify(id, p)
		t.end(s)
	} else {
		cc.c.verify(id, p)
	}
	return id, nil
}

// verify records the latency of id's first reply and checks its value.
// Unknown and duplicate ids are left to loadgen, which counts them as bad
// or late responses.
//
//go:noinline
func (c *checker) verify(id uint64, p []byte) {
	if id < c.base || id-c.base >= uint64(len(c.reqs)) {
		return
	}
	r := &c.reqs[id-c.base]
	if r.done {
		return
	}
	r.done = true
	if r.start >= c.warmup {
		c.lat = append(c.lat, c.eng.Now()-r.start)
	}
	if c.kv == nil {
		return
	}
	if err := c.kv.check(r, p); err != nil {
		c.wrong = append(c.wrong, fmt.Sprintf("reply %d: %v", id, err))
	}
}

func (ix *kvIndex) check(r *sentReq, p []byte) error {
	if r.key < 0 {
		return errors.New("request for a key that was never stored")
	}
	var (
		vals [][]byte
		ok   = uint64(1)
		err  error
	)
	switch r.op {
	case workloads.OpGet:
		vals, err = ix.decode(msgs.GetRespSchema, p, false)
	case workloads.OpGetList:
		vals, err = ix.decode(msgs.GetListRespSchema, p, true)
	case workloads.OpPut:
		ok, err = ix.decodeOK(p)
	default:
		return fmt.Errorf("no check for op %v", r.op)
	}
	switch {
	case err != nil:
		return fmt.Errorf("%v reply does not decode: %w", r.op, err)
	case ok != 1:
		return fmt.Errorf("put refused (ok=%d)", ok)
	case r.op == workloads.OpPut:
		return nil
	}
	h := ix.hash(vals)
	for _, a := range ix.accepted[r.key] {
		if a == h {
			return nil
		}
	}
	return fmt.Errorf("%v returned a value never stored under key %d", r.op, r.key)
}

// decode extracts the value field (field 1) of a GetResp or GetListResp.
func (ix *kvIndex) decode(schema *core.Schema, p []byte, list bool) ([][]byte, error) {
	if ix.sys == driver.SysCornflakes {
		m, err := ix.ctx.DeserializeBytes(schema, p)
		if err != nil {
			return nil, err
		}
		defer m.Release()
		if !list {
			return [][]byte{m.GetBytes(1)}, nil
		}
		vals := make([][]byte, m.ListLen(1))
		for j := range vals {
			vals[j] = m.GetBytesElem(1, j)
		}
		return vals, nil
	}
	d, err := ix.decodeDoc(schema, p)
	if err != nil {
		return nil, err
	}
	if !list && len(d.F[1].B) == 0 {
		return [][]byte{nil}, nil
	}
	return d.F[1].B, nil
}

// decodeOK extracts a PutResp's ok field.
func (ix *kvIndex) decodeOK(p []byte) (uint64, error) {
	if ix.sys == driver.SysCornflakes {
		m, err := ix.ctx.DeserializeBytes(msgs.PutRespSchema, p)
		if err != nil {
			return 0, err
		}
		defer m.Release()
		return m.GetInt(1), nil
	}
	d, err := ix.decodeDoc(msgs.PutRespSchema, p)
	if err != nil {
		return 0, err
	}
	return d.F[1].I, nil
}

// decodeDoc decodes a baseline system's reply; only Protobuf is served by
// a benchmark workload.
func (ix *kvIndex) decodeDoc(schema *core.Schema, p []byte) (*baselines.Doc, error) {
	if ix.sys != driver.SysProtobuf {
		return nil, fmt.Errorf("no reply decoder for %v", ix.sys)
	}
	return baselines.ProtoUnmarshal(schema, p, 0, ix.meter)
}
