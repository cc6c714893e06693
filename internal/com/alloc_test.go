package com

import (
	"bytes"
	"testing"

	"dynautosar/internal/can"
	"dynautosar/internal/sim"
)

// TestAllocFreeSignalChain pins the Fig3 signal chain at the COM/CAN
// layer: pack a signal into its I-PDU, transmit over the arbitrated
// bus, dispatch and unpack at the receiver — zero heap allocations per
// signal in steady state. The chain exercises the inline CAN transmit
// queue, the pooled simulation events, the reusable bus receive buffer
// and the rx PDU scratch pad.
func TestAllocFreeSignalChain(t *testing.T) {
	eng := sim.NewEngine()
	bus := can.NewBus(eng, "CAN0", 500_000)
	tx := NewStack(eng, bus.AttachNode("TX"))
	rx := NewStack(eng, bus.AttachNode("RX"))

	def := IPDUDef{
		Name:  "Speed",
		CANID: 0x120,
		// Length 6 < MaxData, so every arrival takes the short-frame
		// padding path through the rx scratch buffer too.
		Length: 6,
		Signals: []SignalDef{
			{Name: "speed", StartBit: 0, Length: 16},
			{Name: "flags", StartBit: 16, Length: 8},
		},
	}
	if err := tx.DefineTx(def); err != nil {
		t.Fatal(err)
	}
	if err := rx.DefineRx(def); err != nil {
		t.Fatal(err)
	}
	var got uint64
	if err := rx.OnSignal(0x120, "speed", func(v uint64, _ sim.Time) { got = v }); err != nil {
		t.Fatal(err)
	}

	v := uint64(0)
	send := func() {
		v = (v + 1) & 0xFFFF
		if err := tx.SendSignal("Speed", "speed", v); err != nil {
			t.Fatal(err)
		}
		eng.Run()
		if got != v {
			t.Fatalf("received %d, want %d", got, v)
		}
	}
	send() // warm the engine's event pool and the queue slabs
	if allocs := testing.AllocsPerRun(200, send); allocs != 0 {
		t.Errorf("signal chain: %v allocs/op in steady state, want 0", allocs)
	}
}

// TestAllocFreeTransportSegmentation pins the package-distribution
// path end to end: segmenting a multi-kilobyte payload into the CAN
// queues, arbitrating its frames onto the bus and reassembling it at the
// receiver allocate nothing per transfer in steady state, for both the
// 12-bit first-frame length and the >4095 B escape form.
func TestAllocFreeTransportSegmentation(t *testing.T) {
	for _, size := range []int{4000, 5000} {
		eng := sim.NewEngine()
		bus := can.NewBus(eng, "CAN0", 500_000)
		na := bus.AttachNode("A")
		nb := bus.AttachNode("B")
		txp := NewTransport(na, 0x600, false, can.Filter{ID: 0x601, Mask: ^uint32(0)})
		rxp := NewTransport(nb, 0x601, false, can.Filter{ID: 0x600, Mask: ^uint32(0)})
		payload := make([]byte, size)
		for i := range payload {
			payload[i] = byte(i)
		}
		intact := false
		rxp.OnPayload(func(p []byte, _ sim.Time) { intact = bytes.Equal(p, payload) })
		transfer := func() {
			intact = false
			if err := txp.Send(payload); err != nil {
				t.Fatal(err)
			}
			eng.Run()
			if !intact {
				t.Fatalf("%d B: payload not reassembled intact", size)
			}
		}
		transfer() // grow the queue heap, event pool and reassembly buffer
		if allocs := testing.AllocsPerRun(20, transfer); allocs != 0 {
			t.Errorf("%d B transfer: %v allocs/op in steady state, want 0", size, allocs)
		}
	}
}
