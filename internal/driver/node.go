// Package driver composes the substrate into runnable client/server
// testbeds: per-node resource bundles (allocator, arena, cache, meter,
// stack, core), key-value servers and client codecs for Cornflakes and
// every baseline serializer, and echo servers for the §2 motivation and
// Figure 9 TCP experiments. The experiments package builds every table and
// figure from these pieces.
//
// Nodes come in two roles. A server node (NewNode, NewNodeCfg,
// Rack.AddNode) is a modelled machine with a cache hierarchy under its
// meter. A client node (NewClientNode, Rack.AddClient) is a load
// generator, like the paper's dedicated 16-thread DPDK client (§6.1): it
// has no cache hierarchy, so its meter models no memory cost, and no
// report reads its cycles. Every testbed builds its clients that way; a
// server built on a client node panics at construction.
package driver

import (
	"cornflakes/internal/cachesim"
	"cornflakes/internal/core"
	"cornflakes/internal/costmodel"
	"cornflakes/internal/mem"
	"cornflakes/internal/netstack"
	"cornflakes/internal/nic"
	"cornflakes/internal/sim"
	"cornflakes/internal/wire"
)

// System identifies a serialization system under test.
type System int

const (
	SysCornflakes System = iota
	SysProtobuf
	SysFlatBuffers
	SysCapnProto
)

func (s System) String() string {
	switch s {
	case SysCornflakes:
		return "Cornflakes"
	case SysProtobuf:
		return "Protobuf"
	case SysFlatBuffers:
		return "FlatBuffers"
	case SysCapnProto:
		return "Cap'n Proto"
	default:
		return "unknown"
	}
}

// AllSystems lists the four compared systems in the paper's table order.
func AllSystems() []System {
	return []System{SysCornflakes, SysProtobuf, SysFlatBuffers, SysCapnProto}
}

// Request op tags: one framing byte ahead of the serialized request names
// the operation, like an RPC method id.
const (
	OpByteGet byte = iota + 1
	OpByteGetM
	OpByteGetList
	OpByteGetIndex
	OpBytePut
)

// ShedByte marks an admission-control rejection: a 9-byte reply of
// ShedByte followed by the request id, little-endian. The marker is
// deliberately outside every serializer's valid leading byte (a Cornflakes
// response starts with a small LE word count, Protobuf with a field tag) so
// clients can classify shed replies before attempting deserialization. An
// explicit reply — rather than a silent drop — lets the client retry or
// give up immediately instead of burning its full timeout.
const ShedByte byte = 0xEE

// shedReplyLen is ShedByte + 8-byte id.
const shedReplyLen = 9

// ShedReply builds the rejection reply for a request id.
func ShedReply(id uint64) []byte {
	p := make([]byte, shedReplyLen)
	p[0] = ShedByte
	wire.PutU64(p[1:], id)
	return p
}

// ShedID reports whether p is a shed reply and, if so, the request id.
func ShedID(p []byte) (uint64, bool) {
	if len(p) != shedReplyLen || p[0] != ShedByte {
		return 0, false
	}
	return wire.GetU64(p[1:]), true
}

// Node bundles one machine's resources.
type Node struct {
	Eng   *sim.Engine
	Alloc *mem.Allocator
	Arena *mem.Arena
	// Cache is nil on a client node (NewClientNode).
	Cache *cachesim.Hierarchy
	Meter *costmodel.Meter
	Ctx   *core.Ctx
	UDP   *netstack.UDP
	TCP   *netstack.TCPConn
	Core  *sim.Core
}

// transport is the send and receive surface of a UDP stack or TCP connection.
type transport interface {
	SendContiguous(payload []byte, sim uint64) error
	SendObject(obj core.Obj) error
	SetRecvHandler(fn func(payload *mem.Buf))
}

// transport returns the node's TCP connection if it has one, else its UDP stack.
func (n *Node) transport() transport {
	if n.TCP != nil {
		return n.TCP
	}
	return n.UDP
}

// requireUDP panics, naming the combination, when a server whose replies
// take UDP-only sends is built on a TCP node, where it would crash mid-run.
func (n *Node) requireUDP(combo string) {
	if n.TCP != nil {
		panic("driver: " + combo + " sends only over UDP, but the node is TCP")
	}
}

// rxRingDepth bounds the server's pending-request queue, modelling the RX
// descriptor ring: overload drops packets instead of queueing unboundedly.
const rxRingDepth = 1024

// NewNode builds a node on the given NIC port. Pass useTCP to attach the
// TCP-lite stack instead of UDP.
func NewNode(eng *sim.Engine, port *nic.Port, useTCP bool) *Node {
	return NewNodeCfg(eng, port, useTCP, cachesim.DefaultConfig())
}

// NewNodeCfg is NewNode with an explicit cache configuration; experiments
// shrink the modelled L3 so scaled-down stores keep the paper's
// working-set-vs-cache ratios.
func NewNodeCfg(eng *sim.Engine, port *nic.Port, useTCP bool, cacheCfg cachesim.Config) *Node {
	return newNode(eng, port, useTCP, cachesim.New(cacheCfg))
}

// NewClientNode builds a client-role node: a load generator rather than a
// modelled machine. It has no cache hierarchy, so its meter charges no
// memory cost. It keeps its allocator, which holds the NIC's DMA buffers
// (and takes the soak's client cap), and its arena and ctx, which encode
// requests.
func NewClientNode(eng *sim.Engine, port *nic.Port, useTCP bool) *Node {
	return newNode(eng, port, useTCP, nil)
}

// newNode builds a node over an existing cache hierarchy (multi-core
// servers hand each core a private hierarchy over one shared L3), or over
// none for a client node.
func newNode(eng *sim.Engine, port *nic.Port, useTCP bool, cache *cachesim.Hierarchy) *Node {
	alloc := mem.NewAllocator()
	arena := mem.NewArena(256 << 10)
	meter := costmodel.NewMeter(costmodel.DefaultCPU(), cache)
	n := &Node{
		Eng:   eng,
		Alloc: alloc,
		Arena: arena,
		Cache: cache,
		Meter: meter,
		Ctx:   core.NewCtx(alloc, arena, meter),
		Core:  sim.NewCore(eng),
	}
	n.Core.MaxQueue = rxRingDepth
	if useTCP {
		n.TCP = netstack.NewTCPConn(eng, port, alloc, meter)
	} else {
		n.UDP = netstack.NewUDP(eng, port, alloc, meter)
	}
	return n
}

// Testbed is a client and server pair joined by one link, mirroring the
// back-to-back machine pairs of §6.1.1. The client is a client node.
type Testbed struct {
	Eng    *sim.Engine
	Client *Node
	Server *Node
}

// propagation models wire plus switch latency one way.
const propagation = 1500 * sim.Nanosecond

// NewTestbed builds a UDP testbed with the given NIC profile on both ends.
func NewTestbed(profile nic.Profile) *Testbed {
	return NewTestbedCfg(profile, cachesim.DefaultConfig())
}

// NewTestbedCfg builds a UDP testbed with an explicit server cache config.
func NewTestbedCfg(profile nic.Profile, cacheCfg cachesim.Config) *Testbed {
	eng := sim.NewEngine()
	pc, ps := nic.Link(eng, profile, profile, propagation)
	return &Testbed{
		Eng:    eng,
		Client: NewClientNode(eng, pc, false),
		Server: NewNodeCfg(eng, ps, false, cacheCfg),
	}
}

// NewTCPTestbed builds a TCP testbed.
func NewTCPTestbed(profile nic.Profile) *Testbed {
	eng := sim.NewEngine()
	pc, ps := nic.Link(eng, profile, profile, propagation)
	return &Testbed{
		Eng:    eng,
		Client: NewClientNode(eng, pc, true),
		Server: NewNode(eng, ps, true),
	}
}
