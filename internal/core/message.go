package core

import (
	"fmt"
	"io"
	"sync"
)

// MsgType identifies the kind of a message exchanged between the trusted
// server and the vehicle's ECM, and between the ECM PIRTE and the plug-in
// PIRTEs over type I SW-C ports. The paper fixes installation packages to
// message type id 0 (section 3.1.3); the remaining ids complete the life
// cycle operations of section 3.2.2.
type MsgType uint8

const (
	// MsgInstall carries an installation package (binaries + context).
	MsgInstall MsgType = 0
	// MsgAck acknowledges a completed operation back to the server.
	MsgAck MsgType = 1
	// MsgUninstall requests removal of a named plug-in.
	MsgUninstall MsgType = 2
	// MsgExternal relays an external (FES/diagnostic) payload between the
	// ECM and a plug-in port.
	MsgExternal MsgType = 3
	// MsgStop requests a plug-in to be stopped (used before updates; the
	// paper mandates stop-then-restart-fresh semantics, section 5).
	MsgStop MsgType = 4
	// MsgStart requests a stopped plug-in to be (re)started.
	MsgStart MsgType = 5
	// MsgNack reports a failed operation with a reason.
	MsgNack MsgType = 6
	// MsgHello is sent by the ECM when it dials the trusted server,
	// identifying the vehicle.
	MsgHello MsgType = 7
	// MsgUpgrade requests a live in-place upgrade of the named plug-in:
	// the payload carries the replacement installation package, and the
	// target PIRTE quiesces, snapshots state, swaps, replays buffered
	// traffic and health-probes the new version before acknowledging —
	// or rolls back to the old version and nacks with a "rollback: "
	// prefixed reason.
	MsgUpgrade MsgType = 8
)

// String implements fmt.Stringer.
func (t MsgType) String() string {
	switch t {
	case MsgInstall:
		return "install"
	case MsgAck:
		return "ack"
	case MsgUninstall:
		return "uninstall"
	case MsgExternal:
		return "external"
	case MsgStop:
		return "stop"
	case MsgStart:
		return "start"
	case MsgNack:
		return "nack"
	case MsgHello:
		return "hello"
	case MsgUpgrade:
		return "upgrade"
	}
	return fmt.Sprintf("MsgType(%d)", uint8(t))
}

// Message is the envelope exchanged on the server link and relayed over
// type I ports. When a new plug-in arrives from the server it comes
// "together with a message type id; the plug-in name; an id of the
// recipient plug-in SW-C; and a context" (paper section 3.1.3) — the
// context and binaries travel inside Payload as an encoded
// plugin.Package.
type Message struct {
	Type    MsgType
	Plugin  PluginName
	ECU     ECUID
	SWC     SWCID
	Seq     uint32
	Payload []byte
}

// maxMessageSize bounds decoded messages; a plug-in binary plus context
// comfortably fits, while corrupt length prefixes are rejected early.
const maxMessageSize = 16 << 20

// readChunk bounds the buffer ReadMessage allocates for a body before
// any of it has arrived; a longer body grows its buffer as it arrives.
const readChunk = 64 << 10

// AppendBinary appends the framed encoding of m to dst and returns the
// extended slice — the allocation-free form of MarshalBinary for hot
// paths that own a reusable buffer (the ECM ack path, the pushers).
// The frame is built in place: eight header bytes are reserved, the
// body encoded after them, and length and checksum backfilled.
func (m Message) AppendBinary(dst []byte) ([]byte, error) {
	base := len(dst)
	e := Enc{buf: append(dst, 0, 0, 0, 0, 0, 0, 0, 0)}
	e.U8(uint8(m.Type))
	e.Str(string(m.Plugin))
	e.Str(string(m.ECU))
	e.Str(string(m.SWC))
	e.U32(m.Seq)
	e.Blob(m.Payload)
	out := e.Bytes()
	body := out[base+8:]
	hdr := Enc{buf: out[base : base : base+8]}
	hdr.U32(uint32(len(body)))
	hdr.U32(Checksum(body))
	return out, nil
}

// MarshalBinary encodes the envelope.
func (m Message) MarshalBinary() ([]byte, error) {
	return m.AppendBinary(make([]byte, 0, 40+len(m.Payload)))
}

// UnmarshalBinary decodes a full frame produced by MarshalBinary,
// verifying the length prefix and checksum.
func (m *Message) UnmarshalBinary(b []byte) error {
	body, err := frameBody(b)
	if err != nil {
		return err
	}
	return m.decodeBody(body)
}

// frameBody validates a frame's length prefix and checksum and returns
// the body — the one copy of the framing contract shared by the plain
// and interned decoders.
func frameBody(b []byte) ([]byte, error) {
	if len(b) < 8 {
		return nil, fmt.Errorf("core: wire: message frame of %d bytes is too short", len(b))
	}
	d := NewDec(b[:8])
	n := d.U32()
	sum := d.U32()
	if int(n) != len(b)-8 {
		return nil, fmt.Errorf("core: wire: frame length %d does not match body of %d bytes", n, len(b)-8)
	}
	body := b[8:]
	if got := Checksum(body); got != sum {
		return nil, fmt.Errorf("core: wire: message checksum mismatch (got %08x want %08x)", got, sum)
	}
	return body, nil
}

// UnmarshalBinaryInterned decodes like UnmarshalBinary but resolves the
// envelope's identifier strings through the interner, so steady-state
// decoding of recurring senders does not allocate. The interner is not
// safe for concurrent use; give each single-threaded decoder its own.
func (m *Message) UnmarshalBinaryInterned(b []byte, in *Interner) error {
	body, err := frameBody(b)
	if err != nil {
		return err
	}
	return m.decodeBodyWith(body, in)
}

// decodeBody decodes the frame body (after length and checksum).
func (m *Message) decodeBody(b []byte) error { return m.decodeBodyWith(b, nil) }

func (m *Message) decodeBodyWith(b []byte, in *Interner) error {
	d := NewDec(b)
	m.Type = MsgType(d.U8())
	if in != nil {
		m.Plugin = PluginName(in.Intern(d.StrBytes()))
		m.ECU = ECUID(in.Intern(d.StrBytes()))
		m.SWC = SWCID(in.Intern(d.StrBytes()))
	} else {
		m.Plugin = PluginName(d.Str())
		m.ECU = ECUID(d.Str())
		m.SWC = SWCID(d.Str())
	}
	m.Seq = d.U32()
	m.Payload = d.Blob()
	if err := d.Err(); err != nil {
		return err
	}
	if d.Remaining() != 0 {
		return fmt.Errorf("core: wire: %d trailing bytes after message", d.Remaining())
	}
	return nil
}

// Interner canonicalises recurring small strings decoded from the wire
// so the hot decode paths stop allocating one string per identifier per
// message. Lookups on cached content are allocation-free; the cache is
// capped, falling back to plain allocation when full.
type Interner struct {
	m map[string]string
}

// maxInternEntries bounds an interner; identifiers are ECU/SW-C/plug-in
// names, so real populations are tiny and the cap only guards against
// adversarial churn.
const maxInternEntries = 1024

// Intern returns the canonical string for the byte content.
func (in *Interner) Intern(b []byte) string {
	if s, ok := in.m[string(b)]; ok { // compiler avoids the conversion alloc
		return s
	}
	s := string(b)
	if len(in.m) < maxInternEntries {
		if in.m == nil {
			in.m = make(map[string]string)
		}
		in.m[s] = s
	}
	return s
}

// frameBufPool recycles encode buffers across WriteMessage calls: the
// server pushers and the ECM ack path frame thousands of messages per
// second, and io.Writer's contract (the writer must not retain p after
// returning) makes the buffer reusable the moment Write returns.
var frameBufPool = sync.Pool{
	New: func() any { b := make([]byte, 0, 256); return &b },
}

// WriteMessage frames and writes one message to w: a 4-byte length, a
// 4-byte CRC-32 of the body, then the body. The encoding buffer is
// pooled; steady-state writers allocate nothing.
func WriteMessage(w io.Writer, m Message) error {
	bp := frameBufPool.Get().(*[]byte)
	b, err := m.AppendBinary((*bp)[:0])
	if err == nil {
		_, err = w.Write(b)
	}
	*bp = b[:0]
	frameBufPool.Put(bp)
	return err
}

// ReadMessage reads one framed message from r.
func ReadMessage(r io.Reader) (Message, error) {
	var hdr [8]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return Message{}, err
	}
	d := NewDec(hdr[:])
	n := d.U32()
	sum := d.U32()
	if n > maxMessageSize {
		return Message{}, fmt.Errorf("core: wire: message of %d bytes exceeds limit", n)
	}
	body, err := readBody(r, int(n))
	if err != nil {
		return Message{}, err
	}
	if got := Checksum(body); got != sum {
		return Message{}, fmt.Errorf("core: wire: message checksum mismatch (got %08x want %08x)", got, sum)
	}
	var m Message
	if err := m.decodeBody(body); err != nil {
		return Message{}, err
	}
	return m, nil
}

// readBody reads an n-byte frame body. A body under readChunk gets its
// exact buffer at once; a longer claim reads into a buffer that grows
// only as bytes arrive, so a header that lies about its length — the
// pusher reads an unauthenticated peer's hello this way — costs memory
// in proportion to what the peer sent, not to what it claimed.
func readBody(r io.Reader, n int) ([]byte, error) {
	if n < readChunk {
		body := make([]byte, n)
		_, err := io.ReadFull(r, body)
		return body, err
	}
	body, err := io.ReadAll(io.LimitReader(r, int64(n)))
	if err == nil && len(body) < n {
		err = io.ErrUnexpectedEOF
	}
	return body, err
}

// Ack builds the acknowledgement for m, echoing its identifiers and
// sequence number.
func (m Message) Ack() Message {
	return Message{Type: MsgAck, Plugin: m.Plugin, ECU: m.ECU, SWC: m.SWC, Seq: m.Seq}
}

// Nack builds the negative acknowledgement for m carrying a reason.
func (m Message) Nack(reason string) Message {
	return Message{Type: MsgNack, Plugin: m.Plugin, ECU: m.ECU, SWC: m.SWC, Seq: m.Seq, Payload: []byte(reason)}
}
