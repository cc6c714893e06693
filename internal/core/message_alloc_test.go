package core

import (
	"bytes"
	"io"
	"runtime"
	"testing"
)

// TestAppendBinaryMatchesMarshal pins that the in-place framing of
// AppendBinary is byte-identical to MarshalBinary, including when it
// extends a non-empty buffer.
func TestAppendBinaryMatchesMarshal(t *testing.T) {
	msgs := []Message{
		{Type: MsgAck, Seq: 7},
		{Type: MsgInstall, Plugin: "OP", ECU: "ECU2", SWC: "SW-C2", Seq: 42,
			Payload: bytes.Repeat([]byte{0xAB}, 300)},
		{Type: MsgNack, Plugin: "COM", Payload: []byte("quota exceeded")},
		{Type: MsgExternal},
	}
	for i, m := range msgs {
		want, err := m.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		prefix := []byte("prefix-")
		got, err := m.AppendBinary(append([]byte(nil), prefix...))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.HasPrefix(got, prefix) {
			t.Fatalf("msg %d: AppendBinary clobbered the prefix", i)
		}
		if !bytes.Equal(got[len(prefix):], want) {
			t.Fatalf("msg %d: AppendBinary differs from MarshalBinary", i)
		}
		var back Message
		if err := back.UnmarshalBinary(got[len(prefix):]); err != nil {
			t.Fatalf("msg %d: round trip: %v", i, err)
		}
	}
}

// TestUnmarshalInterned pins that the interned decode matches the plain
// decode and stops allocating once its identifier cache is warm.
func TestUnmarshalInterned(t *testing.T) {
	m := Message{Type: MsgAck, Plugin: "OP", ECU: "ECU2", SWC: "SW-C2", Seq: 9,
		Payload: []byte{1, 2, 3}}
	frame, err := m.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var in Interner
	var got Message
	if err := got.UnmarshalBinaryInterned(frame, &in); err != nil {
		t.Fatal(err)
	}
	if got.Plugin != m.Plugin || got.ECU != m.ECU || got.SWC != m.SWC ||
		got.Seq != m.Seq || !bytes.Equal(got.Payload, m.Payload) {
		t.Fatalf("interned decode = %+v, want %+v", got, m)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		var msg Message
		if err := msg.UnmarshalBinaryInterned(frame, &in); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("interned decode: %v allocs/op with warm cache, want 0", allocs)
	}
}

// TestInternerCap pins that the cache stops growing at its cap but keeps
// returning correct strings.
func TestInternerCap(t *testing.T) {
	var in Interner
	for i := 0; i < maxInternEntries+100; i++ {
		b := []byte{byte(i), byte(i >> 8), 'x'}
		if got := in.Intern(b); got != string(b) {
			t.Fatalf("intern %d returned %q", i, got)
		}
	}
	if len(in.m) > maxInternEntries {
		t.Fatalf("interner grew to %d entries (cap %d)", len(in.m), maxInternEntries)
	}
}

// TestWriteMessageAllocFree pins the pooled encoder of the ack path: a
// steady writer stream reuses its frame buffers.
func TestWriteMessageAllocFree(t *testing.T) {
	m := Message{Type: MsgAck, Plugin: "OP", ECU: "ECU2", SWC: "SW-C2", Seq: 1}
	if err := WriteMessage(io.Discard, m); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		if err := WriteMessage(io.Discard, m); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("WriteMessage: %v allocs/op in steady state, want 0", allocs)
	}
}

// TestReadMessageAllocBoundedByArrival: a header that claims the largest
// frame and then ends costs the reader less than 64 KiB, not the 16 MiB
// it claimed — the pusher reads an unauthenticated peer's hello this way.
func TestReadMessageAllocBoundedByArrival(t *testing.T) {
	e := NewEnc(8)
	e.U32(maxMessageSize)
	e.U32(0)
	hdr := e.Bytes()
	const runs = 10
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		if _, err := ReadMessage(bytes.NewReader(hdr)); err == nil {
			t.Fatal("a header with no body was accepted")
		}
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / runs; per >= 64<<10 {
		t.Fatalf("ReadMessage allocated %d bytes for an 8-byte frame, want under 64 KiB", per)
	}
}

// TestReadMessageLongBody: a body past the up-front buffer still reads
// whole, and one cut short fails.
func TestReadMessageLongBody(t *testing.T) {
	m := Message{Type: MsgInstall, Plugin: "OP", ECU: "ECU2", SWC: "SW-C2", Seq: 3,
		Payload: bytes.Repeat([]byte{0x5A}, 3*readChunk+17)}
	frame, err := m.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	got, err := ReadMessage(bytes.NewReader(frame))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Payload, m.Payload) || got.Plugin != m.Plugin || got.Seq != m.Seq {
		t.Fatalf("long message did not round-trip: %d payload bytes", len(got.Payload))
	}
	if _, err := ReadMessage(bytes.NewReader(frame[:len(frame)-1])); err != io.ErrUnexpectedEOF {
		t.Fatalf("truncated long message: err = %v, want io.ErrUnexpectedEOF", err)
	}
}
