package core

import (
	"bytes"
	"math"
	"net"
	"reflect"
	"testing"
	"testing/quick"
)

func TestEncDecPrimitives(t *testing.T) {
	e := NewEnc(0)
	e.U8(0xAB)
	e.U16(0x1234)
	e.U32(0xDEADBEEF)
	e.U64(0x0102030405060708)
	e.I64(-42)
	e.F64(3.5)
	e.Str("hello")
	e.Blob([]byte{1, 2, 3})

	d := NewDec(e.Bytes())
	if got := d.U8(); got != 0xAB {
		t.Fatalf("U8 = %x", got)
	}
	if got := d.U16(); got != 0x1234 {
		t.Fatalf("U16 = %x", got)
	}
	if got := d.U32(); got != 0xDEADBEEF {
		t.Fatalf("U32 = %x", got)
	}
	if got := d.U64(); got != 0x0102030405060708 {
		t.Fatalf("U64 = %x", got)
	}
	if got := d.I64(); got != -42 {
		t.Fatalf("I64 = %d", got)
	}
	if got := d.F64(); got != 3.5 {
		t.Fatalf("F64 = %g", got)
	}
	if got := d.Str(); got != "hello" {
		t.Fatalf("Str = %q", got)
	}
	if got := d.Blob(); !bytes.Equal(got, []byte{1, 2, 3}) {
		t.Fatalf("Blob = %v", got)
	}
	if d.Err() != nil {
		t.Fatalf("Err = %v", d.Err())
	}
	if d.Remaining() != 0 {
		t.Fatalf("Remaining = %d", d.Remaining())
	}
}

func TestDecTruncationSticksAsError(t *testing.T) {
	d := NewDec([]byte{0x01})
	_ = d.U32()
	if d.Err() == nil {
		t.Fatal("truncated U32 not reported")
	}
	// Subsequent reads return zero values, error is sticky.
	if got := d.U8(); got != 0 {
		t.Fatalf("post-error U8 = %d", got)
	}
	if got := d.Str(); got != "" {
		t.Fatalf("post-error Str = %q", got)
	}
}

// TestPortValueLayout pins the (port id, value) payload the PIRTE's type
// II ports, the ECM and the server's external push share.
func TestPortValueLayout(t *testing.T) {
	var buf [PortValueLen]byte
	b := EncodePortValue(&buf, 0x0102, -2)
	want := []byte{0x01, 0x02, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFE}
	if !bytes.Equal(b, want) {
		t.Fatalf("EncodePortValue = % x, want % x", b, want)
	}
	port, v, err := DecodePortValue(append(b, 0xAA))
	if err != nil || port != 0x0102 || v != -2 {
		t.Fatalf("DecodePortValue = %v, %d, %v", port, v, err)
	}
	if port, v, err := DecodePortValue(b[:PortValueLen-1]); err == nil || port != 0 || v != 0 {
		t.Fatalf("truncated payload = %v, %d, %v", port, v, err)
	}
}

func TestEncStrTruncatesOversized(t *testing.T) {
	e := NewEnc(0)
	huge := string(make([]byte, math.MaxUint16+10))
	e.Str(huge)
	d := NewDec(e.Bytes())
	if got := d.Str(); len(got) != math.MaxUint16 {
		t.Fatalf("oversized string encoded to %d bytes", len(got))
	}
}

func TestQuickEncDecRoundTrip(t *testing.T) {
	f := func(a uint8, b uint16, c uint32, d64 uint64, s string, blob []byte) bool {
		if len(s) > math.MaxUint16 {
			s = s[:math.MaxUint16]
		}
		e := NewEnc(0)
		e.U8(a)
		e.U16(b)
		e.U32(c)
		e.U64(d64)
		e.Str(s)
		e.Blob(blob)
		d := NewDec(e.Bytes())
		okA := d.U8() == a
		okB := d.U16() == b
		okC := d.U32() == c
		okD := d.U64() == d64
		okS := d.Str() == s
		got := d.Blob()
		okBlob := bytes.Equal(got, blob) || (len(blob) == 0 && len(got) == 0)
		return okA && okB && okC && okD && okS && okBlob && d.Err() == nil && d.Remaining() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestMessageRoundTrip(t *testing.T) {
	m := Message{
		Type:    MsgInstall,
		Plugin:  "OP",
		ECU:     "ECU2",
		SWC:     "SW-C2",
		Seq:     77,
		Payload: []byte("op.pkg"),
	}
	b, err := m.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var back Message
	if err := back.UnmarshalBinary(b); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m, back) {
		t.Fatalf("round trip = %+v, want %+v", back, m)
	}
}

func TestMessageChecksumDetectsCorruption(t *testing.T) {
	m := Message{Type: MsgInstall, Plugin: "COM", Payload: []byte{1, 2, 3, 4}}
	b, err := m.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)-1] ^= 0xFF
	var back Message
	if err := back.UnmarshalBinary(b); err == nil {
		t.Fatal("corrupted frame accepted")
	}
}

func TestReadWriteMessageOverPipe(t *testing.T) {
	client, server := net.Pipe()
	defer client.Close()
	defer server.Close()

	sent := Message{Type: MsgExternal, Plugin: "COM", ECU: "ECU1", Seq: 3, Payload: []byte("Wheels=42")}
	errc := make(chan error, 1)
	go func() { errc <- WriteMessage(client, sent) }()
	got, err := ReadMessage(server)
	if err != nil {
		t.Fatal(err)
	}
	if werr := <-errc; werr != nil {
		t.Fatal(werr)
	}
	if !reflect.DeepEqual(sent, got) {
		t.Fatalf("got %+v, want %+v", got, sent)
	}
}

func TestReadMessageRejectsOversized(t *testing.T) {
	e := NewEnc(8)
	e.U32(maxMessageSize + 1)
	e.U32(0)
	if _, err := ReadMessage(bytes.NewReader(e.Bytes())); err == nil {
		t.Fatal("oversized frame accepted")
	}
}

// FuzzReadMessage feeds hostile bytes to the ECM/pusher frame reader:
// it must never panic, and a frame it accepts re-encodes byte for byte
// through WriteMessage.
func FuzzReadMessage(f *testing.F) {
	for _, m := range []Message{
		{Type: MsgHello, Payload: []byte("VIN-F-00001")},
		{Type: MsgInstall, Plugin: "OP", ECU: "ECU2", SWC: "SW-C2", Seq: 42, Payload: bytes.Repeat([]byte{0xAB}, 300)},
		{Type: MsgNack, Plugin: "COM", Seq: 7, Payload: []byte("bus fault: corrupt frame")},
		{Type: MsgAck},
	} {
		frame, err := m.MarshalBinary()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame)
	}
	lying := NewEnc(8)
	lying.U32(maxMessageSize)
	lying.U32(0)
	f.Add(lying.Bytes())
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := ReadMessage(bytes.NewReader(data))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := WriteMessage(&out, m); err != nil {
			t.Fatal(err)
		}
		frame := data[:8+int(NewDec(data[:4]).U32())]
		if !bytes.Equal(out.Bytes(), frame) {
			t.Fatalf("accepted frame re-encodes differently:\n in  %x\n out %x", frame, out.Bytes())
		}
	})
}

func TestAckAndNack(t *testing.T) {
	m := Message{Type: MsgInstall, Plugin: "OP", ECU: "ECU2", SWC: "SW-C2", Seq: 9}
	ack := m.Ack()
	if ack.Type != MsgAck || ack.Seq != 9 || ack.Plugin != "OP" || ack.ECU != "ECU2" {
		t.Fatalf("Ack = %+v", ack)
	}
	nack := m.Nack("incompatible")
	if nack.Type != MsgNack || string(nack.Payload) != "incompatible" {
		t.Fatalf("Nack = %+v", nack)
	}
}

func TestMsgTypeStrings(t *testing.T) {
	for mt, want := range map[MsgType]string{
		MsgInstall: "install", MsgAck: "ack", MsgUninstall: "uninstall",
		MsgExternal: "external", MsgStop: "stop", MsgStart: "start",
		MsgNack: "nack", MsgHello: "hello",
	} {
		if mt.String() != want {
			t.Errorf("MsgType(%d).String() = %q, want %q", mt, mt.String(), want)
		}
	}
	// The paper fixes installation packages to message type id 0.
	if MsgInstall != 0 {
		t.Fatal("MsgInstall must have wire id 0 (paper section 3.1.3)")
	}
}
