package driver

import (
	"cornflakes/internal/cachesim"
	"cornflakes/internal/fabric"
	"cornflakes/internal/netstack"
	"cornflakes/internal/nic"
	"cornflakes/internal/sim"
)

// Rack is the pluggable topology composer under every multi-node testbed:
// N nodes, each on its own NIC, plugged into one simulated ToR switch on
// one engine. It owns nothing KV-shaped — a node becomes a KV shard, an
// RPC service, a cache tier, or a load generator by what its owner attaches
// to it, so new scenario families (service chains, tiered delivery) compose
// here instead of re-deriving switch plumbing. ClusterTestbed builds its
// sharded rack on top; internal/rpc builds call graphs the same way.
type Rack struct {
	// Eng runs the whole rack: the switch and every node.
	Eng    *sim.Engine
	Switch *fabric.Switch
	// Exec is the handle a harness may drive the run through; it is always
	// Eng. It remains so callers written against the sim.Runner surface
	// keep compiling.
	Exec sim.Runner
	// Nodes[i] sits at fabric address Addrs[i], in AddNode order. The
	// switch hands out addresses 1..n in plug-in order, so topology
	// construction order is part of a scenario's deterministic identity.
	Nodes []*Node
	Addrs []byte
}

// NewRack builds an empty rack: one engine, one ToR switch. A zero
// fabric.Config takes the defaults (100 Gbps ports, 300 ns switching
// latency, 256-frame output queues).
func NewRack(fcfg fabric.Config) *Rack {
	eng := sim.NewEngine()
	return &Rack{Eng: eng, Exec: eng, Switch: fabric.New(eng, fcfg)}
}

// AddNode plugs a fresh UDP node into the switch and returns it with its
// fabric address.
func (r *Rack) AddNode(profile nic.Profile, cacheCfg cachesim.Config) (*Node, byte) {
	port, addr := r.Switch.PlugIn(profile, propagation)
	n := NewNodeCfg(r.Eng, port, false, cacheCfg)
	n.UDP.LocalAddr = addr
	r.Nodes = append(r.Nodes, n)
	r.Addrs = append(r.Addrs, addr)
	return n, addr
}

// FrameLedger sums every frame counter in the topology, stage by stage, so
// a chaos scenario can prove no frame was lost silently: every posted
// frame must be accounted as delivered, wire-dropped, FCS-discarded,
// downed-port-discarded, switch-tail-dropped, misrouted, or host-down
// dropped. "Up" is endpoint→switch, "Down" is switch→endpoint.
type FrameLedger struct {
	// Up direction, summed over all endpoint NICs.
	EndpointTx  uint64 // frames posted by endpoints
	UpDelivered uint64 // reached the switch NIC intact
	UpDropped   uint64 // lost on the up wire (injector)
	UpFCS       uint64 // corrupted on the up wire, discarded by the switch NIC

	// Inside the switch.
	SwitchIn      uint64 // frames the switch ingressed
	DownedIngress uint64 // arrived on an admin-down port
	Misrouted     uint64 // no route for the destination byte
	SwitchOut     uint64 // forwarded onto an egress link
	EgressDrops   uint64 // tail-dropped at a full output queue
	DownedEgress  uint64 // egress port was admin-down

	// Down direction, summed over all switch-side link ports.
	DownDelivered uint64 // reached the endpoint NIC intact
	DownDropped   uint64 // lost on the down wire (injector)
	DownFCS       uint64 // corrupted on the down wire, discarded by the endpoint NIC

	// At the endpoints.
	EndpointRx    uint64 // frames the endpoint stacks saw (incl. host-down)
	HostDownDrops uint64 // frames that arrived at a crashed host
}

// Ledger gathers the FrameLedger over every node in the rack. Call it only
// after the engine has quiesced (Eng.Run()): frames still inside the switch
// pipeline or on a wire would read as conservation gaps.
func (r *Rack) Ledger() FrameLedger {
	var l FrameLedger
	for i, n := range r.Nodes {
		l.add(r.Addrs[i], n.UDP, r.Switch)
	}
	l.Misrouted = r.Switch.Misrouted()
	return l
}

func (l *FrameLedger) add(addr byte, u *netstack.UDP, sw *fabric.Switch) {
	ep := u.Port
	lp := sw.LinkPort(addr)
	ps := sw.Stats(addr)
	l.EndpointTx += ep.TxFrames
	l.UpDelivered += ep.DeliveredFrames
	l.UpDropped += ep.DroppedFrames
	l.UpFCS += lp.RxFCSErrors
	l.SwitchIn += ps.InFrames
	l.DownedIngress += ps.DownedIngress
	l.SwitchOut += ps.OutFrames
	l.EgressDrops += ps.EgressDrops
	l.DownedEgress += ps.DownedEgress
	l.DownDelivered += lp.DeliveredFrames
	l.DownDropped += lp.DroppedFrames
	l.DownFCS += ep.RxFCSErrors
	l.EndpointRx += u.RxPackets + u.RxDownDrops
	l.HostDownDrops += u.RxDownDrops
}

// SilentLoss returns the total conservation gap across the four frame
// stages — zero when every frame is accounted for. dupUp/dupDown are the
// injector duplication counts for the up and down wires (duplicates are
// distinct arrivals the post-time counters never saw).
func (l FrameLedger) SilentLoss(dupUp, dupDown uint64) int64 {
	gap := func(in, out uint64) int64 {
		d := int64(in) - int64(out)
		if d < 0 {
			d = -d
		}
		return d
	}
	up := gap(l.EndpointTx+dupUp, l.UpDelivered+l.UpDropped+l.UpFCS)
	sw := gap(l.SwitchIn, l.DownedIngress+l.Misrouted+l.SwitchOut+l.EgressDrops+l.DownedEgress)
	down := gap(l.SwitchOut+dupDown, l.DownDelivered+l.DownDropped+l.DownFCS)
	host := gap(l.DownDelivered, l.EndpointRx)
	return up + sw + down + host
}
