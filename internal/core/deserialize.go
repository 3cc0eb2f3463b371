package core

import (
	"fmt"
	"unicode/utf8"

	"cornflakes/internal/mem"
	"cornflakes/internal/wire"
)

// Deserialize wraps a received pinned buffer as a read-only Message view.
//
// Deserialization is zero-copy (§2): getters return views into the received
// buffer. The header region and every entry range are validated eagerly —
// corrupt input is rejected here, so getters cannot read out of bounds —
// but field *data* is untouched and UTF-8 validation of string fields is
// deferred to first access (§6.4), which is why Cornflakes' deserialization
// slice in the Figure 11 cycle breakdown is shorter than the baselines'.
//
// The Message takes over the caller's reference on buf; Release drops it.
func (c *Ctx) Deserialize(schema *Schema, buf *mem.Buf) (*Message, error) {
	m, err := c.deserializeView(schema, buf, buf.Bytes(), buf.SimAddr(), 0)
	if err != nil {
		return nil, err
	}
	m.rbuf = buf
	return m, nil
}

// DeserializeBytes wraps a plain byte slice as a read-only Message view.
// It is the client-side decode path: the payload is not in pinned memory,
// and the load generator's memory is not modelled, so the view sits at
// the fixed base of the unpinned window rather than at an address hashed
// from its contents. Servers decode pinned buffers with Deserialize.
// Release on the result is a no-op (no buffer reference to drop).
func (c *Ctx) DeserializeBytes(schema *Schema, data []byte) (*Message, error) {
	return c.deserializeView(schema, nil, data, mem.SimUnpinnedBase, 0)
}

// deserializeView parses one message header at base, validating recursively.
func (c *Ctx) deserializeView(schema *Schema, buf *mem.Buf, obj []byte, simBase uint64, base int) (*Message, error) {
	hdr, err := wire.Parse(obj, base, len(schema.Fields))
	if err != nil {
		return nil, err
	}
	meter := c.Meter
	// The parse touches the bitmap and entry lines of this header.
	meter.Access(simBase+uint64(base), hdr.Len())

	m := c.getMsg(schema)
	if m == nil {
		m = &Message{schema: schema, ctx: c}
	} else {
		m.pooled = false
		m.rbuf = nil
		if m.vals != nil {
			// The pooled struct last served send-mode; its values were
			// cleared at Release, so the slice can be carried dormant.
			for i := range m.vals {
				m.vals[i].clear()
			}
		}
	}
	m.recv, m.rhdr, m.rsim = true, hdr, simBase
	for i, f := range schema.Fields {
		if !hdr.Present(i) {
			continue
		}
		meter.Charge(meter.CPU.PerFieldCy)
		switch f.Kind {
		case KindInt:
			// Inline; nothing to validate.
		case KindBytes, KindString:
			off, n := hdr.Ptr(i)
			if err := hdr.CheckRange(off, n); err != nil {
				return nil, fmt.Errorf("field %s.%s: %w", schema.Name, f.Name, err)
			}
		case KindIntList:
			off, count := hdr.Ptr(i)
			if _, err := wire.NewListTable(obj, int(off), int(count)); err != nil {
				return nil, fmt.Errorf("field %s.%s: %w", schema.Name, f.Name, err)
			}
			meter.Access(simBase+uint64(off), int(count)*wire.EntrySize)
		case KindBytesList, KindStringList:
			off, count := hdr.Ptr(i)
			lt, err := wire.NewListTable(obj, int(off), int(count))
			if err != nil {
				return nil, fmt.Errorf("field %s.%s: %w", schema.Name, f.Name, err)
			}
			meter.Access(simBase+uint64(off), int(count)*wire.EntrySize)
			for j := 0; j < lt.Count(); j++ {
				eOff, eLen := lt.ElemPtr(j)
				if err := hdr.CheckRange(eOff, eLen); err != nil {
					return nil, fmt.Errorf("field %s.%s[%d]: %w", schema.Name, f.Name, j, err)
				}
			}
		case KindNested:
			off, _ := hdr.Ptr(i)
			sub, err := c.deserializeView(f.Nested, buf, obj, simBase, int(off))
			if err != nil {
				return nil, fmt.Errorf("field %s.%s: %w", schema.Name, f.Name, err)
			}
			// The view existed only to validate; park it so recursive
			// validation cycles the pool instead of draining it.
			sub.park()
		case KindNestedList:
			off, count := hdr.Ptr(i)
			lt, err := wire.NewListTable(obj, int(off), int(count))
			if err != nil {
				return nil, fmt.Errorf("field %s.%s: %w", schema.Name, f.Name, err)
			}
			meter.Access(simBase+uint64(off), int(count)*wire.EntrySize)
			for j := 0; j < lt.Count(); j++ {
				eOff, _ := lt.ElemPtr(j)
				sub, err := c.deserializeView(f.Nested, buf, obj, simBase, int(eOff))
				if err != nil {
					return nil, fmt.Errorf("field %s.%s[%d]: %w", schema.Name, f.Name, j, err)
				}
				sub.park()
			}
		}
	}
	return m, nil
}

func (m *Message) mustRecv() {
	if !m.recv {
		panic("core: getter on a send-mode message (use setters' values directly)")
	}
}

// Has reports whether field i is present in the received message.
func (m *Message) Has(i int) bool {
	m.mustRecv()
	m.field(i, 1<<m.schema.Fields[i].Kind)
	return m.rhdr.Present(i)
}

// GetInt reads an integer field. Absent fields read as zero (proto3
// semantics).
func (m *Message) GetInt(i int) uint64 {
	m.mustRecv()
	m.field(i, 1<<KindInt)
	if !m.rhdr.Present(i) {
		return 0
	}
	return m.rhdr.Int(i)
}

// GetBytes returns a zero-copy view of a bytes field (nil when absent).
// The view is valid while the root message holds the receive buffer.
func (m *Message) GetBytes(i int) []byte {
	m.mustRecv()
	m.field(i, 1<<KindBytes)
	if !m.rhdr.Present(i) {
		return nil
	}
	off, n := m.rhdr.Ptr(i)
	return m.rhdr.Object()[off : off+n : off+n]
}

// GetString returns a string field (empty when absent), performing the
// deferred UTF-8 validation (charged per byte).
func (m *Message) GetString(i int) (string, error) {
	m.mustRecv()
	m.field(i, 1<<KindString)
	if !m.rhdr.Present(i) {
		return "", nil
	}
	off, n := m.rhdr.Ptr(i)
	return m.validateString(int(off), int(n))
}

// ListLen returns the element count of a repeated field (0 when absent).
func (m *Message) ListLen(i int) int {
	m.mustRecv()
	m.field(i, 1<<KindIntList|1<<KindBytesList|1<<KindStringList|1<<KindNestedList)
	if !m.rhdr.Present(i) {
		return 0
	}
	_, count := m.rhdr.Ptr(i)
	return int(count)
}

// GetIntElem reads element j of a repeated integer field.
func (m *Message) GetIntElem(i, j int) uint64 {
	m.mustRecv()
	m.field(i, 1<<KindIntList)
	return m.listTable(i).ElemInt(j)
}

// GetBytesElem returns a zero-copy view of element j of a repeated bytes
// field.
func (m *Message) GetBytesElem(i, j int) []byte {
	m.mustRecv()
	m.field(i, 1<<KindBytesList)
	off, n := m.listTable(i).ElemPtr(j)
	return m.rhdr.Object()[off : off+n : off+n]
}

// GetStringElem returns element j of a repeated string field with deferred
// UTF-8 validation.
func (m *Message) GetStringElem(i, j int) (string, error) {
	m.mustRecv()
	m.field(i, 1<<KindStringList)
	off, n := m.listTable(i).ElemPtr(j)
	return m.validateString(int(off), int(n))
}

// GetNested returns a read-only view of a nested message field (nil when
// absent). The view shares the root's receive buffer.
func (m *Message) GetNested(i int) *Message {
	m.mustRecv()
	f := m.field(i, 1<<KindNested)
	if !m.rhdr.Present(i) {
		return nil
	}
	off, _ := m.rhdr.Ptr(i)
	return m.nestedView(f.Nested, int(off))
}

// GetNestedElem returns a read-only view of element j of a repeated nested
// field.
func (m *Message) GetNestedElem(i, j int) *Message {
	m.mustRecv()
	f := m.field(i, 1<<KindNestedList)
	eOff, _ := m.listTable(i).ElemPtr(j)
	return m.nestedView(f.Nested, int(eOff))
}

func (m *Message) nestedView(schema *Schema, base int) *Message {
	hdr, err := wire.Parse(m.rhdr.Object(), base, len(schema.Fields))
	if err != nil {
		// Validated at Deserialize time; a failure here is a library bug.
		panic(fmt.Sprintf("core: nested header invalid after validation: %v", err))
	}
	return &Message{schema: schema, ctx: m.ctx, recv: true, rhdr: hdr, rsim: m.rsim}
}

func (m *Message) listTable(i int) wire.ListTable {
	off, count := m.rhdr.Ptr(i)
	lt, err := wire.NewListTable(m.rhdr.Object(), int(off), int(count))
	if err != nil {
		panic(fmt.Sprintf("core: list table invalid after validation: %v", err))
	}
	return lt
}

func (m *Message) validateString(off, n int) (string, error) {
	b := m.rhdr.Object()[off : off+n : off+n]
	meter := m.ctx.Meter
	meter.Charge(float64(n) * meter.CPU.UTF8ValidateCyPerByte)
	meter.Access(m.rsim+uint64(off), n)
	if !utf8.Valid(b) {
		return "", fmt.Errorf("core: field contains invalid UTF-8")
	}
	return string(b), nil
}
