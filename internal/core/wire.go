package core

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
)

// The binary wire form used between the trusted server, the ECM and the
// plug-in SW-Cs. The format is deliberately simple — the embedded side of
// the paper's system has neither file systems nor dynamic memory, so
// messages are flat, length-prefixed and CRC-protected.

// Enc is an append-style encoder for the wire format.
type Enc struct{ buf []byte }

// NewEnc returns an encoder with the given initial capacity.
func NewEnc(capacity int) *Enc { return &Enc{buf: make([]byte, 0, capacity)} }

// Bytes returns the encoded buffer.
func (e *Enc) Bytes() []byte { return e.buf }

// Len returns the number of encoded bytes so far.
func (e *Enc) Len() int { return len(e.buf) }

// U8 appends one byte.
func (e *Enc) U8(v uint8) { e.buf = append(e.buf, v) }

// U16 appends a big-endian 16-bit value.
func (e *Enc) U16(v uint16) { e.buf = binary.BigEndian.AppendUint16(e.buf, v) }

// U32 appends a big-endian 32-bit value.
func (e *Enc) U32(v uint32) { e.buf = binary.BigEndian.AppendUint32(e.buf, v) }

// U64 appends a big-endian 64-bit value.
func (e *Enc) U64(v uint64) { e.buf = binary.BigEndian.AppendUint64(e.buf, v) }

// I64 appends a big-endian signed 64-bit value.
func (e *Enc) I64(v int64) { e.U64(uint64(v)) }

// F64 appends an IEEE-754 double.
func (e *Enc) F64(v float64) { e.U64(math.Float64bits(v)) }

// Str appends a 16-bit length-prefixed UTF-8 string.
func (e *Enc) Str(s string) {
	if len(s) > math.MaxUint16 {
		s = s[:math.MaxUint16]
	}
	e.U16(uint16(len(s)))
	e.buf = append(e.buf, s...)
}

// Blob appends a 32-bit length-prefixed byte slice.
func (e *Enc) Blob(b []byte) {
	e.U32(uint32(len(b)))
	e.buf = append(e.buf, b...)
}

// Dec is a cursor-style decoder for the wire format. Decoding methods
// record the first error and return zero values afterwards, so call sites
// may decode a full structure and check Err once.
type Dec struct {
	buf []byte
	off int
	err error
}

// NewDec returns a decoder over buf.
func NewDec(buf []byte) *Dec { return &Dec{buf: buf} }

// Err returns the first decoding error, if any.
func (d *Dec) Err() error { return d.err }

// Remaining returns the number of undecoded bytes.
func (d *Dec) Remaining() int { return len(d.buf) - d.off }

func (d *Dec) fail(what string) {
	if d.err == nil {
		d.err = fmt.Errorf("core: wire: truncated %s at offset %d", what, d.off)
	}
}

// U8 decodes one byte.
func (d *Dec) U8() uint8 {
	if d.err != nil || d.off+1 > len(d.buf) {
		d.fail("u8")
		return 0
	}
	v := d.buf[d.off]
	d.off++
	return v
}

// U16 decodes a big-endian 16-bit value.
func (d *Dec) U16() uint16 {
	if d.err != nil || d.off+2 > len(d.buf) {
		d.fail("u16")
		return 0
	}
	v := binary.BigEndian.Uint16(d.buf[d.off:])
	d.off += 2
	return v
}

// U32 decodes a big-endian 32-bit value.
func (d *Dec) U32() uint32 {
	if d.err != nil || d.off+4 > len(d.buf) {
		d.fail("u32")
		return 0
	}
	v := binary.BigEndian.Uint32(d.buf[d.off:])
	d.off += 4
	return v
}

// U64 decodes a big-endian 64-bit value.
func (d *Dec) U64() uint64 {
	if d.err != nil || d.off+8 > len(d.buf) {
		d.fail("u64")
		return 0
	}
	v := binary.BigEndian.Uint64(d.buf[d.off:])
	d.off += 8
	return v
}

// I64 decodes a big-endian signed 64-bit value.
func (d *Dec) I64() int64 { return int64(d.U64()) }

// F64 decodes an IEEE-754 double.
func (d *Dec) F64() float64 { return math.Float64frombits(d.U64()) }

// Str decodes a 16-bit length-prefixed string.
func (d *Dec) Str() string {
	n := int(d.U16())
	if d.err != nil || d.off+n > len(d.buf) {
		d.fail("string")
		return ""
	}
	s := string(d.buf[d.off : d.off+n])
	d.off += n
	return s
}

// StrBytes decodes a 16-bit length-prefixed string as raw bytes. The
// returned slice aliases the decoder's buffer — it is the zero-copy
// sibling of Str for callers that intern or copy themselves.
func (d *Dec) StrBytes() []byte {
	n := int(d.U16())
	if d.err != nil || d.off+n > len(d.buf) {
		d.fail("string")
		return nil
	}
	b := d.buf[d.off : d.off+n : d.off+n]
	d.off += n
	return b
}

// Blob decodes a 32-bit length-prefixed byte slice. The returned slice
// aliases the decoder's buffer.
func (d *Dec) Blob() []byte {
	n := int(d.U32())
	if d.err != nil || n < 0 || d.off+n > len(d.buf) {
		d.fail("blob")
		return nil
	}
	b := d.buf[d.off : d.off+n : d.off+n]
	d.off += n
	return b
}

// PortValueLen is the size of a (plug-in port id, value) payload:
// [u16 port][i64 value], big-endian. A type II SW-C port multiplexes
// plug-in port conversations in it (paper section 3.1.3), and a
// MsgExternal envelope carries external traffic in it, in either
// direction.
const PortValueLen = 10

// EncodePortValue writes a (port id, value) payload into the caller's
// buffer and returns it; the slice aliases buf, so encoding allocates
// nothing and the bytes stay valid until buf is reused.
func EncodePortValue(buf *[PortValueLen]byte, port PluginPortID, value int64) []byte {
	binary.BigEndian.PutUint16(buf[:2], uint16(port))
	binary.BigEndian.PutUint64(buf[2:], uint64(value))
	return buf[:]
}

// DecodePortValue is the inverse of EncodePortValue; bytes past the
// payload are ignored.
func DecodePortValue(b []byte) (PluginPortID, int64, error) {
	d := Dec{buf: b}
	port := PluginPortID(d.U16())
	value := d.I64()
	if d.err != nil {
		return 0, 0, d.err
	}
	return port, value, nil
}

// Checksum computes the CRC-32 (IEEE) checksum used to protect packages in
// transit over the in-vehicle network.
func Checksum(b []byte) uint32 { return crc32.ChecksumIEEE(b) }

// --- Context wire form -----------------------------------------------------

// MarshalBinary encodes the context in the compact wire form shipped inside
// installation packages.
func (c Context) MarshalBinary() ([]byte, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	e := NewEnc(64)
	e.U16(uint16(len(c.PIC)))
	for _, p := range c.PIC {
		e.Str(p.Name)
		e.U16(uint16(p.ID))
	}
	e.U16(uint16(len(c.PLC)))
	for _, p := range c.PLC {
		e.U8(uint8(p.Kind))
		e.U16(uint16(p.Plugin))
		switch p.Kind {
		case LinkVirtual:
			e.U16(uint16(p.Virtual))
		case LinkVirtualRemote:
			e.U16(uint16(p.Virtual))
			e.U16(uint16(p.Remote))
		case LinkPeer:
			e.U16(uint16(p.Peer))
		}
	}
	e.U16(uint16(len(c.ECC)))
	for _, p := range c.ECC {
		e.Str(p.Endpoint)
		e.Str(string(p.ECU))
		e.Str(p.MessageID)
		e.U16(uint16(p.Port))
	}
	return e.Bytes(), nil
}

// UnmarshalBinary decodes the wire form produced by MarshalBinary.
func (c *Context) UnmarshalBinary(b []byte) error {
	d := NewDec(b)
	nPIC := int(d.U16())
	pic := make(PIC, 0, nPIC)
	for i := 0; i < nPIC; i++ {
		name := d.Str()
		id := PluginPortID(d.U16())
		pic = append(pic, PICEntry{Name: name, ID: id})
	}
	nPLC := int(d.U16())
	plc := make(PLC, 0, nPLC)
	for i := 0; i < nPLC; i++ {
		entry := PLCEntry{Kind: LinkKind(d.U8()), Plugin: PluginPortID(d.U16())}
		switch entry.Kind {
		case LinkNone:
		case LinkVirtual:
			entry.Virtual = VirtualPortID(d.U16())
		case LinkVirtualRemote:
			entry.Virtual = VirtualPortID(d.U16())
			entry.Remote = PluginPortID(d.U16())
		case LinkPeer:
			entry.Peer = PluginPortID(d.U16())
		default:
			return fmt.Errorf("core: wire: PLC post %d has invalid kind %d", i, entry.Kind)
		}
		plc = append(plc, entry)
	}
	nECC := int(d.U16())
	var ecc ECC
	for i := 0; i < nECC; i++ {
		ecc = append(ecc, ECCEntry{
			Endpoint:  d.Str(),
			ECU:       ECUID(d.Str()),
			MessageID: d.Str(),
			Port:      PluginPortID(d.U16()),
		})
	}
	if err := d.Err(); err != nil {
		return err
	}
	if d.Remaining() != 0 {
		return fmt.Errorf("core: wire: %d trailing bytes after context", d.Remaining())
	}
	*c = Context{PIC: pic, PLC: plc, ECC: ecc}
	return c.Validate()
}
