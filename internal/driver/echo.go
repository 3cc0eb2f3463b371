package driver

import (
	"fmt"

	"cornflakes/internal/baselines"
	"cornflakes/internal/core"
	"cornflakes/internal/mem"
	"cornflakes/internal/msgs"
	"cornflakes/internal/trace"
	"cornflakes/internal/wire"
	"cornflakes/internal/workloads"
)

// EchoMode selects the echo server's datapath, covering the manual
// approaches of Figure 1 and the serialization libraries of Figure 2.
type EchoMode int

const (
	// EchoNoSer echoes the received pinned buffer with no serialization at
	// all — the 77 Gbps upper bound of Figure 2.
	EchoNoSer EchoMode = iota
	// EchoZeroCopy posts the id and each field as separate scatter-gather
	// entries on the zero-copy stack (Figure 1 "Zero-Copy": the NIC
	// coalesces with extra PCIe requests). Like the §2.2 prototype stack it
	// includes use-after-free protection, so each entry pays the refcount
	// bookkeeping.
	EchoZeroCopy
	// EchoOneCopy copies the payload once, directly into pinned memory.
	EchoOneCopy
	// EchoTwoCopy copies into a contiguous staging buffer and then into
	// pinned memory — what a copy-based library's datapath does.
	EchoTwoCopy
	// EchoLib deserializes and reserializes with the configured System.
	EchoLib
)

func (m EchoMode) String() string {
	switch m {
	case EchoNoSer:
		return "No serialization"
	case EchoZeroCopy:
		return "Zero-copy"
	case EchoOneCopy:
		return "One-copy"
	case EchoTwoCopy:
		return "Two-copy"
	default:
		return "library"
	}
}

// EchoServer is the echo application of §2.2 and §6.1.2: almost no
// application processing; the server deserializes and reserializes a list
// of fixed-size fields. It runs over the node's UDP stack (Figures 1–2) or
// its TCP connection (Figure 9, §6.2.3: the Demikernel TCP integration).
type EchoServer struct {
	N         *Node
	Mode      EchoMode
	Sys       System // for EchoLib
	FieldSize int
	NumFields int

	Handled, Errors uint64

	pl Pipeline
}

// NewEchoServer attaches an echo server to the node's stack. EchoNoSer and
// EchoZeroCopy post pinned buffers, and EchoLib with Protobuf or Cap'n
// Proto sends through UDP-only paths, so those panic on a TCP node.
func NewEchoServer(n *Node, mode EchoMode, sys System, fieldSize, numFields int) *EchoServer {
	if mode == EchoNoSer || mode == EchoZeroCopy || mode == EchoLib && sys.docNeedsUDP() {
		n.requireUDP(fmt.Sprintf("echo server (%v, %v)", mode, sys))
	}
	s := &EchoServer{N: n, Mode: mode, Sys: sys, FieldSize: fieldSize, NumFields: numFields}
	s.pl.Init(n, trace.PhaseHandle, s.serve)
	n.transport().SetRecvHandler(func(p *mem.Buf) { s.pl.Submit(Req{P: p}) })
	return s
}

// StageUtilization is the utilization of the server's host core.
func (s *EchoServer) StageUtilization() float64 { return s.pl.StageUtilization() }

func (s *EchoServer) serve(r Req) {
	p := r.P
	s.Handled++
	if s.Mode == EchoLib {
		s.handleLib(p)
		return
	}
	defer p.DecRef()
	m := s.N.Meter
	var err error
	switch s.Mode {
	case EchoNoSer:
		// Bounce the pinned RX buffer straight back.
		err = s.N.UDP.SendPinned([]*mem.Buf{p}, true)

	case EchoZeroCopy:
		// Respond with id + each field as its own raw gather entry.
		if p.Len() < 8+s.FieldSize*s.NumFields {
			s.Errors++
			return
		}
		bufs := make([]*mem.Buf, 0, 1+s.NumFields)
		bufs = append(bufs, p.SubView(0, 8))
		for i := 0; i < s.NumFields; i++ {
			bufs = append(bufs, p.SubView(8+i*s.FieldSize, s.FieldSize))
		}
		err = s.N.UDP.SendPinned(bufs, true)
		for _, b := range bufs {
			b.DecRef() // our view references; the NIC holds its own
		}

	case EchoOneCopy:
		err = s.N.transport().SendContiguous(p.Bytes(), p.SimAddr())

	case EchoTwoCopy:
		// First copy into a contiguous staging buffer, second copy into
		// DMA memory inside SendContiguous. The second copy reads a cached
		// source (§2.2).
		staging := s.N.Arena.Alloc(p.Len())
		m.Charge(m.CPU.ArenaAllocCy)
		m.Copy(p.SimAddr(), staging.Sim, p.Len())
		copy(staging.Data, p.Bytes())
		err = s.N.transport().SendContiguous(staging.Data, staging.Sim)
	}
	if err != nil {
		s.Errors++
	}
}

// handleLib deserializes the GetM echo message and reserializes it with
// the configured library.
func (s *EchoServer) handleLib(p *mem.Buf) {
	ctx := s.N.Ctx
	m := s.N.Meter
	if s.Sys == SysCornflakes {
		req, err := msgs.DeserializeGetM(ctx, p)
		if err != nil {
			s.Errors++
			p.DecRef()
			return
		}
		resp := msgs.NewGetM(ctx)
		resp.SetId(req.Id())
		n := req.ValsLen()
		for j := 0; j < n; j++ {
			// Views into the received pinned buffer: fields at or above
			// the threshold recover the RX RcBuf and echo zero-copy.
			resp.AppendVals(ctx.NewCFPtr(req.Vals(j)))
		}
		if err := s.N.transport().SendObject(resp.Obj()); err != nil {
			s.Errors++
		}
		resp.Release()
		req.Release()
		return
	}

	defer p.DecRef()
	req, err := s.Sys.DecodeDoc(msgs.GetMSchema, p.Bytes(), p.SimAddr(), m)
	if err != nil {
		s.Errors++
		return
	}
	resp := baselines.NewDoc(msgs.GetMSchema)
	resp.SetInt(0, req.F[0].I)
	for j, v := range req.F[2].B {
		resp.AddBytes(2, v, req.F[2].Sim[j])
	}
	if err := s.Sys.SendDoc(s.N, resp); err != nil {
		s.Errors++
	}
}

// EchoClient builds echo requests and extracts response ids.
type EchoClient struct {
	Mode      EchoMode
	Sys       System
	N         *Node
	FieldSize int
	NumFields int
}

// Steps implements loadgen.Client.
func (c *EchoClient) Steps(workloads.Request) int { return 1 }

// BuildStep implements loadgen.Client.
func (c *EchoClient) BuildStep(id uint64, _ workloads.Request, _ int) []byte {
	if c.Mode != EchoLib {
		b := make([]byte, 8+c.FieldSize*c.NumFields)
		wire.PutU64(b, id)
		for i := range b[8:] {
			b[8+i] = byte(i)
		}
		return b
	}
	// Library echo: a GetM with NumFields values of FieldSize bytes.
	field := make([]byte, c.FieldSize)
	for i := range field {
		field[i] = byte(i)
	}
	if c.Sys == SysCornflakes {
		ctx := c.N.Ctx
		defer c.N.Arena.Reset()
		msg := msgs.NewGetM(ctx)
		msg.SetId(id)
		for i := 0; i < c.NumFields; i++ {
			msg.AppendVals(ctx.NewCFPtr(field))
		}
		return core.Marshal(msg.Obj())
	}
	d := baselines.NewDoc(msgs.GetMSchema)
	d.SetInt(0, id)
	for i := 0; i < c.NumFields; i++ {
		d.AddBytes(2, field, 0)
	}
	return c.Sys.EncodeDoc(d, c.N.Meter, 0)
}

// ResponseID implements loadgen.Client.
func (c *EchoClient) ResponseID(p []byte) (uint64, error) {
	if c.Mode != EchoLib {
		if len(p) < 8 {
			return 0, errShortResponse
		}
		return wire.GetU64(p), nil
	}
	id, ok := c.Sys.PeekID(p)
	if !ok {
		return 0, errShortResponse
	}
	return id, nil
}

type shortResponseError struct{}

func (shortResponseError) Error() string { return "driver: short echo response" }

var errShortResponse = shortResponseError{}
