package driver

import (
	"fmt"

	"cornflakes/internal/baselines"
	"cornflakes/internal/core"
	"cornflakes/internal/workloads"
)

// KVClient encodes workload requests and decodes response ids for one
// serialization system; it plugs into loadgen.Run. The load generator
// machine is not the measured resource (§6.1.1): it runs on a client node
// (NewClientNode), whose meter models no memory cost, and the cycles its
// encoding charges are never drained or reported.
type KVClient struct {
	Sys System
	N   *Node
}

// NewKVClient builds a codec over the client node.
func NewKVClient(n *Node, sys System) *KVClient {
	return &KVClient{Sys: sys, N: n}
}

// Steps implements loadgen.Client: indexed-get requests (the CDN workload)
// fetch req.Index sub-objects sequentially; everything else is one
// exchange.
func (c *KVClient) Steps(req workloads.Request) int {
	if req.Op == workloads.OpGetIndex && req.Index > 1 {
		return req.Index
	}
	return 1
}

// opByte maps a workload op to the request framing byte.
func opByte(op workloads.Op) byte {
	switch op {
	case workloads.OpGet:
		return OpByteGet
	case workloads.OpGetM:
		return OpByteGetM
	case workloads.OpGetList:
		return OpByteGetList
	case workloads.OpGetIndex:
		return OpByteGetIndex
	default:
		return OpBytePut
	}
}

// BuildStep implements loadgen.Client: the op byte, then the request
// serialized with the client's system. Every op shares one field layout:
// the id, the key (getM: the key list), then getIndex's index or put's
// value.
func (c *KVClient) BuildStep(id uint64, req workloads.Request, step int) []byte {
	ob := opByte(req.Op)
	if c.Sys != SysCornflakes {
		d := baselines.NewDoc(reqSchema(ob))
		d.SetInt(0, id)
		if ob == OpByteGetM {
			for _, k := range req.Keys {
				d.AddBytes(1, k, 0)
			}
		} else {
			d.SetBytes(1, req.Keys[0], 0)
		}
		switch ob {
		case OpByteGetIndex:
			d.SetInt(2, uint64(step))
		case OpBytePut:
			d.SetBytes(2, req.Vals[0], 0)
		}
		out := c.Sys.EncodeDoc(d, c.N.Meter, 1)
		out[0] = ob
		return out
	}
	ctx := c.N.Ctx
	defer c.N.Arena.Reset()
	m := core.NewMessage(reqSchema(ob), ctx)
	m.SetInt(0, id)
	if ob == OpByteGetM {
		for _, k := range req.Keys {
			m.AppendBytes(1, ctx.NewCFPtr(k))
		}
	} else {
		m.SetBytes(1, ctx.NewCFPtr(req.Keys[0]))
	}
	switch ob {
	case OpByteGetIndex:
		m.SetInt(2, uint64(step))
	case OpBytePut:
		m.SetBytes(2, ctx.NewCFPtr(req.Vals[0]))
	}
	return opFrame(ob, m)
}

// opFrame serializes obj behind a one-byte opcode in a single allocation.
func opFrame(op byte, obj core.Obj) []byte {
	out := core.MarshalInto(nil, obj, 1)
	out[0] = op
	return out
}

// ResponseID implements loadgen.Client.
func (c *KVClient) ResponseID(p []byte) (uint64, error) {
	id, ok := c.Sys.PeekID(p)
	if !ok {
		return 0, fmt.Errorf("driver: cannot extract id from %s response", c.Sys)
	}
	return id, nil
}
