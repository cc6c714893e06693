package can

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"dynautosar/internal/sim"
)

func newBus(bitrate int) (*sim.Engine, *Bus) {
	eng := sim.NewEngine()
	return eng, NewBus(eng, "CAN0", bitrate)
}

func TestFrameValidate(t *testing.T) {
	good := Frame{ID: 0x123, Data: []byte{1, 2, 3}}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []Frame{
		{ID: 0x800},                            // standard id out of range
		{ID: 1 << 29, Extended: true},          // extended id out of range
		{ID: 1, Data: make([]byte, MaxData+1)}, // oversized payload
	} {
		if err := bad.Validate(); err == nil {
			t.Errorf("Validate(%+v) accepted", bad)
		}
	}
}

func TestFrameBits(t *testing.T) {
	empty := Frame{ID: 1}
	if bits := empty.Bits(); bits != 47+34/5 {
		t.Fatalf("empty frame bits = %d", bits)
	}
	full := Frame{ID: 1, Data: make([]byte, 8)}
	if bits := full.Bits(); bits != 47+64+(34+64)/5 {
		t.Fatalf("full frame bits = %d", bits)
	}
	ext := Frame{ID: 1, Extended: true}
	if ext.Bits() != empty.Bits()+20 {
		t.Fatalf("extended overhead = %d", ext.Bits()-empty.Bits())
	}
	rtr := Frame{ID: 1, RTR: true, Data: []byte{1, 2}}
	if rtr.Bits() != empty.Bits() {
		t.Fatalf("RTR frame carries data bits")
	}
}

func TestPointToPointDelivery(t *testing.T) {
	eng, bus := newBus(500_000)
	a := bus.AttachNode("A")
	b := bus.AttachNode("B")
	var got []Frame
	var at sim.Time
	b.OnReceive(MatchAll, func(f Frame, ts sim.Time) { got = append(got, f); at = ts })
	if err := a.Send(Frame{ID: 0x100, Data: []byte{0xAB}}); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if len(got) != 1 || got[0].ID != 0x100 || got[0].Data[0] != 0xAB {
		t.Fatalf("got = %v", got)
	}
	want := bus.FrameTime(Frame{ID: 0x100, Data: []byte{0xAB}})
	if at != sim.Time(want) {
		t.Fatalf("delivered at %v, want %v", at, want)
	}
	if a.Sent != 1 || b.Received != 1 {
		t.Fatalf("counters: sent=%d received=%d", a.Sent, b.Received)
	}
}

func TestNoSelfReception(t *testing.T) {
	eng, bus := newBus(500_000)
	a := bus.AttachNode("A")
	selfGot := 0
	a.OnReceive(MatchAll, func(Frame, sim.Time) { selfGot++ })
	_ = a.Send(Frame{ID: 1})
	eng.Run()
	if selfGot != 0 {
		t.Fatal("node received its own frame")
	}
}

func TestArbitrationByID(t *testing.T) {
	eng, bus := newBus(500_000)
	a := bus.AttachNode("A")
	b := bus.AttachNode("B")
	c := bus.AttachNode("C")
	var order []uint32
	c.OnReceive(MatchAll, func(f Frame, _ sim.Time) { order = append(order, f.ID) })
	// Enqueue while the bus is busy so arbitration has real contenders:
	// first frame occupies the bus, then 0x050 must beat 0x200.
	_ = a.Send(Frame{ID: 0x300})
	_ = a.Send(Frame{ID: 0x200})
	_ = b.Send(Frame{ID: 0x050})
	eng.Run()
	if len(order) != 3 || order[0] != 0x300 || order[1] != 0x050 || order[2] != 0x200 {
		t.Fatalf("order = %03X", order)
	}
}

func TestAcceptanceFilter(t *testing.T) {
	eng, bus := newBus(500_000)
	a := bus.AttachNode("A")
	b := bus.AttachNode("B")
	var got []uint32
	b.OnReceive(Filter{ID: 0x100, Mask: 0x700}, func(f Frame, _ sim.Time) { got = append(got, f.ID) })
	_ = a.Send(Frame{ID: 0x101})
	_ = a.Send(Frame{ID: 0x201})
	_ = a.Send(Frame{ID: 0x1FF})
	eng.Run()
	if len(got) != 2 || got[0] != 0x101 || got[1] != 0x1FF {
		t.Fatalf("filtered = %03X", got)
	}
}

func TestCorruptionRetransmits(t *testing.T) {
	eng, bus := newBus(500_000)
	a := bus.AttachNode("A")
	b := bus.AttachNode("B")
	delivered := 0
	b.OnReceive(MatchAll, func(Frame, sim.Time) { delivered++ })
	fail := 2
	bus.SetFaultInjector(func(Frame) FaultAction {
		if fail > 0 {
			fail--
			return Corrupt
		}
		return Deliver
	})
	_ = a.Send(Frame{ID: 0x10, Data: []byte{1}})
	eng.Run()
	if delivered != 1 {
		t.Fatalf("delivered = %d", delivered)
	}
	st := bus.Stats()
	if st.FramesCorrupted != 2 || st.FramesDelivered != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if a.State() != ErrorActive {
		t.Fatalf("state = %v", a.State())
	}
}

func TestBusOffAfterPersistentErrors(t *testing.T) {
	eng, bus := newBus(500_000)
	a := bus.AttachNode("A")
	bus.AttachNode("B")
	bus.SetFaultInjector(func(Frame) FaultAction { return Corrupt })
	_ = a.Send(Frame{ID: 0x10})
	eng.Run()
	if a.State() != BusOff {
		t.Fatalf("state = %v, want bus-off", a.State())
	}
	if err := a.Send(Frame{ID: 0x11}); !errors.Is(err, ErrBusOff) {
		t.Fatalf("Send on bus-off node = %v", err)
	}
	// 255/8 + 1 = 32 corruptions before TEC exceeds 255.
	if st := bus.Stats(); st.FramesCorrupted != 32 {
		t.Fatalf("corrupted = %d, want 32", st.FramesCorrupted)
	}
}

func TestLoseDropsSilently(t *testing.T) {
	eng, bus := newBus(500_000)
	a := bus.AttachNode("A")
	b := bus.AttachNode("B")
	delivered := 0
	b.OnReceive(MatchAll, func(Frame, sim.Time) { delivered++ })
	bus.SetFaultInjector(func(Frame) FaultAction { return Lose })
	_ = a.Send(Frame{ID: 0x10})
	eng.Run()
	if delivered != 0 {
		t.Fatal("lost frame delivered")
	}
	if st := bus.Stats(); st.FramesLost != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestTapSeesAllTraffic(t *testing.T) {
	eng, bus := newBus(500_000)
	a := bus.AttachNode("A")
	bus.AttachNode("B")
	var seen []uint32
	bus.Tap(func(f Frame, _ sim.Time) { seen = append(seen, f.ID) })
	_ = a.Send(Frame{ID: 3})
	_ = a.Send(Frame{ID: 1})
	eng.Run()
	if len(seen) != 2 {
		t.Fatalf("tap saw %v", seen)
	}
}

func TestLoadAndFrameTime(t *testing.T) {
	eng, bus := newBus(125_000)
	a := bus.AttachNode("A")
	bus.AttachNode("B")
	f := Frame{ID: 1, Data: make([]byte, 8)}
	ft := bus.FrameTime(f)
	// 130 bits at 125 kbit/s = 1040 µs.
	if ft != 1040 {
		t.Fatalf("FrameTime = %v, want 1040", ft)
	}
	_ = a.Send(f)
	eng.Run()
	if load := bus.Load(); load < 0.99 || load > 1.01 {
		t.Fatalf("load = %f, want ~1 (bus busy the whole run)", load)
	}
}

func TestQueueFIFOPerNodeSameID(t *testing.T) {
	eng, bus := newBus(500_000)
	a := bus.AttachNode("A")
	b := bus.AttachNode("B")
	var payloads []byte
	b.OnReceive(MatchAll, func(f Frame, _ sim.Time) { payloads = append(payloads, f.Data[0]) })
	for i := byte(0); i < 5; i++ {
		_ = a.Send(Frame{ID: 0x42, Data: []byte{i}})
	}
	eng.Run()
	for i := byte(0); i < 5; i++ {
		if payloads[i] != i {
			t.Fatalf("payloads = %v", payloads)
		}
	}
}

func TestSenderDataReuseIsSafe(t *testing.T) {
	eng, bus := newBus(500_000)
	a := bus.AttachNode("A")
	b := bus.AttachNode("B")
	var got byte
	b.OnReceive(MatchAll, func(f Frame, _ sim.Time) { got = f.Data[0] })
	buf := []byte{7}
	_ = a.Send(Frame{ID: 1, Data: buf})
	buf[0] = 99 // caller mutates after Send
	eng.Run()
	if got != 7 {
		t.Fatalf("got = %d, frame aliased caller buffer", got)
	}
}

func TestQuickArbitrationDeliversLowestFirst(t *testing.T) {
	f := func(ids []uint16) bool {
		if len(ids) == 0 {
			return true
		}
		if len(ids) > 32 {
			ids = ids[:32]
		}
		eng, bus := newBus(500_000)
		tx := bus.AttachNode("TX")
		rx := bus.AttachNode("RX")
		var order []uint32
		rx.OnReceive(MatchAll, func(fr Frame, _ sim.Time) { order = append(order, fr.ID) })
		for _, id := range ids {
			_ = tx.Send(Frame{ID: uint32(id) & 0x7FF})
		}
		eng.Run()
		if len(order) != len(ids) {
			return false
		}
		// After the first frame (sent on an idle bus), delivery must be
		// sorted by id since all contenders were queued while busy.
		for i := 2; i < len(order); i++ {
			if order[i-1] > order[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// refBus is the arbitration oracle: the bus as it was before node queues
// became heaps, with the linear scan over every queued frame and the
// prepend-and-copy retransmission kept verbatim. It shares Frame,
// pending, frame timing and fault confinement thresholds with Bus, so
// FuzzArbitrationMatchesReference isolates the queue discipline.
type refBus struct {
	eng       *sim.Engine
	nodes     []*refNode
	busy      bool
	seq       uint64
	stats     Stats
	txPending pending
	txNode    *refNode
	txStart   sim.Time
	rxBuf     [MaxData]byte
	fault     func(Frame) FaultAction
	taps      []func(Frame, sim.Time)
	frameTime func(Frame) sim.Duration
}

type refNode struct {
	bus      *refBus
	queue    []pending
	rx       []rxHandler
	tec      int
	state    ErrorState
	Sent     uint64
	Received uint64
}

func (n *refNode) Send(f Frame) error {
	if err := f.Validate(); err != nil {
		return err
	}
	if n.state == BusOff {
		return ErrBusOff
	}
	n.bus.seq++
	p := pending{id: f.ID, seq: n.bus.seq, dlc: uint8(len(f.Data)), ext: f.Extended, rtr: f.RTR}
	copy(p.data[:], f.Data)
	n.queue = append(n.queue, p)
	n.bus.kick()
	return nil
}

func (b *refBus) kick() {
	if b.busy {
		return
	}
	winner, node, ok := b.arbitrate()
	if !ok {
		return
	}
	b.busy = true
	b.txPending = winner
	b.txNode = node
	b.txStart = b.eng.Now()
	var buf [MaxData]byte
	b.eng.After(b.frameTime(winner.frameOver(buf[:])), func() {
		b.busy = false
		b.stats.BusyTime += sim.Duration(b.eng.Now() - b.txStart)
		done := b.txPending
		b.finish(b.txNode, &done)
		b.kick()
	})
}

func (b *refBus) arbitrate() (pending, *refNode, bool) {
	var best *pending
	var bestNode *refNode
	var bestIdx int
	for _, n := range b.nodes {
		if n.state == BusOff {
			continue
		}
		for i := range n.queue {
			p := &n.queue[i]
			if best == nil || p.id < best.id ||
				(p.id == best.id && p.seq < best.seq) {
				best = p
				bestNode = n
				bestIdx = i
			}
		}
	}
	if best == nil {
		return pending{}, nil, false
	}
	p := *best
	bestNode.queue = append(bestNode.queue[:bestIdx], bestNode.queue[bestIdx+1:]...)
	return p, bestNode, true
}

func (b *refBus) finish(node *refNode, p *pending) {
	f := p.frameOver(b.rxBuf[:])
	action := Deliver
	if b.fault != nil {
		action = b.fault(f)
	}
	switch action {
	case Corrupt:
		b.stats.FramesCorrupted++
		node.tec += 8
		b.updateState(node)
		if node.state != BusOff {
			requeued := *p
			requeued.seq = 0
			node.queue = append([]pending{requeued}, node.queue...)
		}
		return
	case Lose:
		b.stats.FramesLost++
		return
	}
	if node.tec > 0 {
		node.tec--
		b.updateState(node)
	}
	node.Sent++
	b.stats.FramesDelivered++
	b.stats.BitsTransferred += uint64(f.Bits())
	now := b.eng.Now()
	for _, tap := range b.taps {
		tap(f.clone(), now)
	}
	for _, rx := range b.nodes {
		if rx == node {
			continue
		}
		for _, h := range rx.rx {
			if h.filter.Match(f.ID) {
				rx.Received++
				h.fn(f, now)
			}
		}
	}
}

func (b *refBus) updateState(n *refNode) {
	switch {
	case n.tec > 255:
		n.state = BusOff
	case n.tec > 127:
		n.state = ErrorPassive
	default:
		n.state = ErrorActive
	}
}

// busDriver is what the arbitration script needs of a bus, so one script
// runs unchanged against Bus and refBus.
type busDriver struct {
	eng       *sim.Engine
	send      []func(Frame) error
	onReceive []func(Filter, func(Frame, sim.Time))
	setFault  func(func(Frame) FaultAction)
	tap       func(func(Frame, sim.Time))
	stats     func() Stats
	// nodes renders every node's Sent, Received, tec and state.
	nodes func() string
}

func heapDriver(nodes int) busDriver {
	eng := sim.NewEngine()
	bus := NewBus(eng, "CAN0", 500_000)
	d := busDriver{eng: eng, setFault: bus.SetFaultInjector, tap: bus.Tap, stats: bus.Stats}
	var ns []*Node
	for i := 0; i < nodes; i++ {
		n := bus.AttachNode(fmt.Sprint("N", i))
		ns = append(ns, n)
		d.send = append(d.send, n.Send)
		d.onReceive = append(d.onReceive, n.OnReceive)
	}
	d.nodes = func() string {
		s := ""
		for _, n := range ns {
			s += fmt.Sprintf(" [%d %d %d %v]", n.Sent, n.Received, n.tec, n.state)
		}
		return s
	}
	return d
}

func refDriver(nodes int) busDriver {
	eng := sim.NewEngine()
	bus := &refBus{eng: eng, frameTime: (&Bus{bitrate: 500_000}).FrameTime}
	d := busDriver{
		eng:      eng,
		setFault: func(fn func(Frame) FaultAction) { bus.fault = fn },
		tap:      func(fn func(Frame, sim.Time)) { bus.taps = append(bus.taps, fn) },
		stats:    func() Stats { return bus.stats },
	}
	for i := 0; i < nodes; i++ {
		n := &refNode{bus: bus}
		bus.nodes = append(bus.nodes, n)
		d.send = append(d.send, n.Send)
		d.onReceive = append(d.onReceive, func(flt Filter, fn func(Frame, sim.Time)) {
			n.rx = append(n.rx, rxHandler{filter: flt, fn: fn})
		})
	}
	d.nodes = func() string {
		s := ""
		for _, n := range bus.nodes {
			s += fmt.Sprintf(" [%d %d %d %v]", n.Sent, n.Received, n.tec, n.state)
		}
		return s
	}
	return d
}

// runArbitrationScript drives a bus from script and returns everything
// observable: each Send's result, every tap and receive callback with
// its time, and the final counters. A tap line carries every node's
// counters, which names the sender: it is the one whose Sent moved.
// The script is read one byte at a time; past its end every read is 0,
// which always picks the benign choice (deliver, no extra send), so
// every script terminates.
func runArbitrationScript(script []byte, mk func(nodes int) busDriver) []string {
	pos := 0
	next := func() int {
		if pos >= len(script) {
			return 0
		}
		pos++
		return int(script[pos-1])
	}
	nodes := 2 + next()%3
	d := mk(nodes)
	var log []string
	// The victim alone sends ids 0x700..0x703; with doom set, every one
	// of them is corrupted, which drives it to bus-off.
	victim, doom := next()%nodes, next()%2 == 1
	budget := 256
	send := func(node int) {
		if budget == 0 {
			return
		}
		budget--
		f := Frame{ID: uint32(0x100 + next()%6), Extended: next()%8 == 1, RTR: next()%16 == 1}
		if node == victim && doom && next()%2 == 1 {
			f.ID = uint32(0x700 + next()%4)
		}
		for n := next() % (MaxData + 1); n > 0; n-- {
			f.Data = append(f.Data, byte(next()))
		}
		err := d.send[node](f)
		log = append(log, fmt.Sprintf("send %d %03X %x @%v: %v", node, f.ID, f.Data, d.eng.Now(), err))
	}
	d.setFault(func(f Frame) FaultAction {
		if doom && f.ID >= 0x700 {
			return Corrupt
		}
		switch next() % 8 {
		case 1:
			return Corrupt
		case 2:
			return Lose
		case 3:
			send(next() % nodes)
		}
		return Deliver
	})
	d.tap(func(f Frame, at sim.Time) {
		log = append(log, fmt.Sprintf("tap %03X %v %v %x @%v%s", f.ID, f.Extended, f.RTR, f.Data, at, d.nodes()))
	})
	for i := 0; i < nodes; i++ {
		flt := MatchAll
		if next()%4 == 1 {
			flt = Filter{ID: uint32(0x100 + next()%6), Mask: 0x7FF}
		}
		d.onReceive[i](flt, func(f Frame, at sim.Time) {
			log = append(log, fmt.Sprintf("rx %d %03X %x @%v", i, f.ID, f.Data, at))
			if next()%4 == 1 {
				send(i)
			}
		})
	}
	for ops := 1 + next()%64; ops > 0; ops-- {
		node, at := next()%nodes, sim.Time(50*(next()%8))
		d.eng.Schedule(at, func() { send(node) })
	}
	d.eng.Run()
	return append(log, fmt.Sprintf("end @%v %+v%s", d.eng.Now(), d.stats(), d.nodes()))
}

// FuzzArbitrationMatchesReference requires the heap-ordered bus to be
// observably identical to the linear-scan oracle: the same sequence of
// (sender, id, data, delivery time), the same Send errors, and the same
// Stats, per-node counters, error counters and states, under equal ids
// within and across nodes, Sends from receive handlers and from the
// fault injector, random Corrupt and Lose, and a node driven to bus-off.
func FuzzArbitrationMatchesReference(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 64; i++ {
		script := make([]byte, 64+rng.Intn(512))
		rng.Read(script)
		f.Add(script)
	}
	// Four nodes; node 0, doomed, sends one 0x700 frame and goes bus-off.
	f.Add([]byte{2, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0})
	f.Fuzz(func(t *testing.T, script []byte) {
		got := runArbitrationScript(script, heapDriver)
		want := runArbitrationScript(script, refDriver)
		if !reflect.DeepEqual(got, want) {
			for i := range got {
				if i >= len(want) || got[i] != want[i] {
					t.Fatalf("diverged at line %d:\n heap: %q\n  ref: %q", i, got[i], want[min(i, len(want)-1)])
				}
			}
			t.Fatalf("heap bus logged %d lines, reference %d", len(got), len(want))
		}
	})
}
