package pirte

import (
	"testing"

	"dynautosar/internal/core"
	"dynautosar/internal/sim"
)

// Steady-state allocation pins of the data plane: once a plug-in is
// installed, delivering messages and routing its writes must not touch
// the heap, across every link kind, the monitor pass and the type III
// fan-out. These tests are the regression lock of the allocation-free
// data plane; install/teardown cost is explicitly out of scope.

func allocPIRTE(t *testing.T) *PIRTE {
	t.Helper()
	eng := sim.NewEngine()
	p, err := New(eng, standardConfig())
	if err != nil {
		t.Fatal(err)
	}
	p.SetSWCWriter(func(core.SWCPortID, []byte) error { return nil })
	return p
}

func installEchoPosts(t *testing.T, p *PIRTE, name string, inID, outID core.PluginPortID, inPost, outPost core.PLCEntry) {
	t.Helper()
	src := "\n.plugin " + name + " 1.0\n.port in required\n.port out provided\non_message in:\n\tARG\n\tPWR out\n\tRET\n"
	inPost.Plugin = inID
	outPost.Plugin = outID
	ctx := core.Context{
		PIC: core.PIC{{Name: "in", ID: inID}, {Name: "out", ID: outID}},
		PLC: core.PLC{inPost, outPost},
	}
	if err := p.Install(mustPackage(t, src, ctx, nil)); err != nil {
		t.Fatal(err)
	}
}

func installEcho(t *testing.T, p *PIRTE, name string, inID, outID core.PluginPortID, outPost core.PLCEntry) {
	t.Helper()
	installEchoPosts(t, p, name, inID, outID, core.PLCEntry{Kind: core.LinkNone}, outPost)
}

// pinZeroAllocs asserts fn is allocation-free in steady state.
func pinZeroAllocs(t *testing.T, what string, fn func()) {
	t.Helper()
	fn() // warm caches (interner, ring, pools) outside the measurement
	if allocs := testing.AllocsPerRun(200, fn); allocs != 0 {
		t.Errorf("%s: %v allocs/op in steady state, want 0", what, allocs)
	}
}

// TestAllocFreeDeliver pins the plain delivery path: DeliverToPlugin →
// dispatch → VM activation → PIRTE-direct write latch.
func TestAllocFreeDeliver(t *testing.T) {
	p := allocPIRTE(t)
	installEcho(t, p, "direct", 10, 11, core.PLCEntry{Kind: core.LinkNone})
	v := int64(0)
	pinZeroAllocs(t, "deliver/direct", func() {
		v++
		if err := p.DeliverToPlugin(10, v); err != nil {
			t.Fatal(err)
		}
	})
	if got, ok := p.DirectRead(11); !ok || got != v {
		t.Fatalf("direct latch = %d,%v want %d", got, ok, v)
	}
}

// TestAllocFreePortWriteLinkKinds pins the outbound write path for all
// three link kinds of the PLC: virtual (type III with a monitor),
// virtual-remote (type II mux) and peer.
func TestAllocFreePortWriteLinkKinds(t *testing.T) {
	t.Run("virtual", func(t *testing.T) {
		p := allocPIRTE(t)
		if err := p.AddMonitor(4, &RangeMonitor{Min: -1 << 32, Max: 1 << 32, Clamp: true}); err != nil {
			t.Fatal(err)
		}
		installEcho(t, p, "virt", 10, 11, core.PLCEntry{Kind: core.LinkVirtual, Virtual: 4})
		pinZeroAllocs(t, "portwrite/virtual", func() {
			if err := p.DeliverToPlugin(10, 7); err != nil {
				t.Fatal(err)
			}
		})
	})
	t.Run("virtual-remote", func(t *testing.T) {
		p := allocPIRTE(t)
		installEcho(t, p, "mux", 10, 11, core.PLCEntry{Kind: core.LinkVirtualRemote, Virtual: 0, Remote: 9})
		pinZeroAllocs(t, "portwrite/virtual-remote", func() {
			if err := p.DeliverToPlugin(10, 7); err != nil {
				t.Fatal(err)
			}
		})
	})
	t.Run("peer", func(t *testing.T) {
		p := allocPIRTE(t)
		installEcho(t, p, "sink", 20, 21, core.PLCEntry{Kind: core.LinkNone})
		installEcho(t, p, "source", 10, 11, core.PLCEntry{Kind: core.LinkPeer, Peer: 20})
		pinZeroAllocs(t, "portwrite/peer", func() {
			if err := p.DeliverToPlugin(10, 7); err != nil {
				t.Fatal(err)
			}
		})
	})
}

// TestAllocFreeTypeIIIFanOut pins the inbound type III fan-out over the
// precomputed subscriber list, through every subscriber's monitor-guarded
// echo, at the eight subscribers the sustained data-plane load runs.
func TestAllocFreeTypeIIIFanOut(t *testing.T) {
	p := allocPIRTE(t)
	if err := p.AddMonitor(4, &RangeMonitor{Min: -1 << 32, Max: 1 << 32, Clamp: true}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		installEchoPosts(t, p, "fan"+string(rune('a'+i)),
			core.PluginPortID(30+2*i), core.PluginPortID(31+2*i),
			core.PLCEntry{Kind: core.LinkVirtual, Virtual: 6},
			core.PLCEntry{Kind: core.LinkVirtual, Virtual: 4})
	}
	frame := []byte{0x01, 0x02}
	pinZeroAllocs(t, "typeIII fan-out", func() {
		p.OnSWCData(6, frame)
	})
	if p.Dispatched == 0 {
		t.Fatal("fan-out dispatched nothing")
	}
}

// TestAllocFreeTypeIProtocol pins the inbound type I message path: frame
// decode (interned identifiers), external payload decode, delivery.
func TestAllocFreeTypeIProtocol(t *testing.T) {
	p := allocPIRTE(t)
	installEcho(t, p, "ext", 10, 11, core.PLCEntry{Kind: core.LinkNone})
	msg := core.Message{Type: core.MsgExternal, ECU: "ECU2", SWC: "SW-C2"}
	payload := core.NewEnc(10)
	payload.U16(10)
	payload.I64(42)
	msg.Payload = payload.Bytes()
	frame, err := msg.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	pinZeroAllocs(t, "type I external", func() {
		p.OnSWCData(0, frame)
	})
	if got, ok := p.DirectRead(11); !ok || got != 42 {
		t.Fatalf("external delivery latch = %d,%v", got, ok)
	}
}
