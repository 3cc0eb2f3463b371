package driver

import (
	"cornflakes/internal/baselines"
	"cornflakes/internal/core"
	"cornflakes/internal/costmodel"
)

// Per-system codec entry points. Every server and client in the repo peeks,
// decodes, encodes and sends through these, so each serializer is selected
// in one switch per operation. DecodeDoc, EncodeDoc and SendDoc cover the
// three baselines (Cornflakes messages go through package core directly);
// any non-Cornflakes System other than Protobuf and FlatBuffers selects
// Cap'n Proto.

// PeekID extracts the message id from a serialized object without a
// metered deserialization.
func (s System) PeekID(p []byte) (uint64, bool) {
	switch s {
	case SysCornflakes:
		return core.PeekID(p)
	case SysProtobuf:
		return baselines.ProtoPeekID(p)
	case SysFlatBuffers:
		return baselines.FBPeekID(p)
	default:
		return baselines.CapnpPeekID(p)
	}
}

// DecodeDoc deserializes a baseline message through the metered path.
func (s System) DecodeDoc(schema *core.Schema, data []byte, sim uint64, m *costmodel.Meter) (*baselines.Doc, error) {
	switch s {
	case SysProtobuf:
		return baselines.ProtoUnmarshal(schema, data, sim, m)
	case SysFlatBuffers:
		return baselines.FBDecode(schema, data, sim, m)
	default:
		return baselines.CapnpDecode(schema, data, sim, m)
	}
}

// EncodeDoc serializes d into a fresh contiguous buffer whose first
// headroom bytes are left for the caller's framing (an op byte, an RPC
// header). Protobuf marshals in place after the headroom, so framing
// costs no extra buffer.
func (s System) EncodeDoc(d *baselines.Doc, m *costmodel.Meter, headroom int) []byte {
	switch s {
	case SysProtobuf:
		size := baselines.ProtoSize(d, m)
		out := make([]byte, headroom+size)
		n := baselines.ProtoMarshal(d, out[headroom:], m.AllocSimAddr(size), m)
		return out[:headroom+n]
	case SysFlatBuffers:
		body := baselines.FBBuild(d, m)
		if headroom == 0 {
			return body
		}
		out := make([]byte, headroom+len(body))
		copy(out[headroom:], body)
		return out
	default:
		segs, _ := baselines.CapnpFlatten(baselines.CapnpBuild(d, m))
		n := headroom
		for _, seg := range segs {
			n += len(seg)
		}
		out := make([]byte, headroom, n)
		for _, seg := range segs {
			out = append(out, seg...)
		}
		return out
	}
}

// SendDoc serializes d straight onto n's transmit path, each system on its
// own datapath: Protobuf marshals from its structs directly into DMA-safe
// memory (§6.1.3, one copy of field data), FlatBuffers builds a contiguous
// buffer, and Cap'n Proto posts its segments. Only FlatBuffers works over
// TCP; the other two send through the UDP stack (docNeedsUDP).
func (s System) SendDoc(n *Node, d *baselines.Doc) error {
	m := n.Meter
	switch s {
	case SysProtobuf:
		size := baselines.ProtoSize(d, m)
		return n.UDP.SendWith(size, func(dst []byte, dstSim uint64) int {
			return baselines.ProtoMarshal(d, dst, dstSim, m)
		})
	case SysFlatBuffers:
		buf, bufSim := baselines.FBBuildSim(d, m)
		return n.transport().SendContiguous(buf, bufSim)
	default:
		segs, sims := baselines.CapnpFlatten(baselines.CapnpBuild(d, m))
		return n.UDP.SendSegments(segs, sims)
	}
}

// docNeedsUDP reports whether SendDoc's path for s is UDP-only.
func (s System) docNeedsUDP() bool { return s == SysProtobuf || s == SysCapnProto }
