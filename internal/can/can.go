// Package can simulates the in-vehicle CAN network that connects the ECUs
// of the paper's test platform. It models the properties the dynamic
// component model actually depends on: identifier-based priority
// arbitration, frame transmission times derived from the configured
// bitrate, broadcast delivery with acceptance filtering, error counters
// with bus-off behaviour, and automatic retransmission after injected
// faults.
//
// The frame timing model charges a standard data frame
//
//	bits = 47 + 8*DLC + stuff,   stuff = (34 + 8*DLC) / 5
//
// (the classical worst-case bit-stuffing estimate); extended frames add 20
// bits of arbitration overhead. Transmission time is bits / bitrate.
package can

import (
	"errors"
	"fmt"

	"dynautosar/internal/sim"
)

// MaxData is the classical CAN payload limit.
const MaxData = 8

// Frame is one CAN frame.
type Frame struct {
	// ID is the 11-bit (standard) or 29-bit (extended) identifier; lower
	// ids win arbitration.
	ID uint32
	// Extended selects the 29-bit identifier format.
	Extended bool
	// RTR marks a remote transmission request (no data).
	RTR bool
	// Data is the payload, at most MaxData bytes.
	Data []byte
}

// Validate checks identifier range and payload size.
func (f Frame) Validate() error {
	if len(f.Data) > MaxData {
		return fmt.Errorf("can: frame %03X carries %d bytes (max %d)", f.ID, len(f.Data), MaxData)
	}
	if f.Extended {
		if f.ID >= 1<<29 {
			return fmt.Errorf("can: extended id %X out of range", f.ID)
		}
	} else if f.ID >= 1<<11 {
		return fmt.Errorf("can: standard id %X out of range", f.ID)
	}
	return nil
}

// Bits returns the modelled number of bits on the wire for this frame.
func (f Frame) Bits() int { return frameBits(len(f.Data), f.RTR, f.Extended) }

func frameBits(dlc int, rtr, ext bool) int {
	if rtr {
		dlc = 0
	}
	bits := 47 + 8*dlc + (34+8*dlc)/5
	if ext {
		bits += 20
	}
	return bits
}

// Filter is an acceptance filter: a frame matches when
// frame.ID & Mask == ID & Mask.
type Filter struct {
	ID   uint32
	Mask uint32
}

// MatchAll accepts every frame.
var MatchAll = Filter{ID: 0, Mask: 0}

// Match reports whether the filter accepts the frame id.
func (flt Filter) Match(id uint32) bool { return id&flt.Mask == flt.ID&flt.Mask }

// FaultAction is the decision of a fault injector for one transmission.
type FaultAction int

const (
	// Deliver lets the frame through untouched.
	Deliver FaultAction = iota
	// Corrupt simulates a CRC error: all receivers discard the frame, the
	// transmitter's error counter increases and the frame is retransmitted.
	Corrupt
	// Lose drops the frame silently without retransmission (e.g. a
	// partitioned bus segment).
	Lose
)

// ErrorState is the CAN node fault confinement state.
type ErrorState int

const (
	// ErrorActive is the normal state.
	ErrorActive ErrorState = iota
	// ErrorPassive is entered when the transmit error counter exceeds 127.
	ErrorPassive
	// BusOff nodes no longer transmit (TEC > 255).
	BusOff
)

// String implements fmt.Stringer.
func (s ErrorState) String() string {
	switch s {
	case ErrorActive:
		return "error-active"
	case ErrorPassive:
		return "error-passive"
	case BusOff:
		return "bus-off"
	}
	return fmt.Sprintf("ErrorState(%d)", int(s))
}

// ErrBusOff is returned when a bus-off node attempts to transmit.
var ErrBusOff = errors.New("can: node is bus-off")

// Stats aggregates bus counters.
type Stats struct {
	FramesDelivered uint64
	FramesCorrupted uint64
	FramesLost      uint64
	BitsTransferred uint64
	// BusyTime is the accumulated simulated time the bus was transmitting.
	BusyTime sim.Duration
}

type rxHandler struct {
	filter Filter
	fn     func(Frame, sim.Time)
}

// pending is one queued transmission. The payload lives inline — CAN
// frames carry at most MaxData bytes — so queueing never touches the
// heap, regardless of burst size.
type pending struct {
	id   uint32
	seq  uint64
	dlc  uint8
	ext  bool
	rtr  bool
	data [MaxData]byte
}

// before is the arbitration order: lowest id first, then lowest seq
// (enqueue order, with a retransmission's seq 0 ahead of everything).
func (p *pending) before(q *pending) bool {
	return p.id < q.id || (p.id == q.id && p.seq < q.seq)
}

// Node is one CAN controller attached to a bus.
type Node struct {
	bus  *Bus
	name string
	// queue[head:] is the node's pending frames in arbitration order
	// (pending.before), so queue[head] is the frame it puts up for
	// arbitration; queue[:head] are consumed slots.
	queue []pending
	head  int
	rx    []rxHandler
	// tec is the transmit error counter of the fault confinement model.
	tec   int
	state ErrorState
	// Sent and Received count successful transfers.
	Sent     uint64
	Received uint64
}

// Name returns the node name.
func (n *Node) Name() string { return n.name }

// State returns the fault confinement state.
func (n *Node) State() ErrorState { return n.state }

// OnReceive registers a handler for frames matching the filter. A node
// does not receive its own transmissions.
func (n *Node) OnReceive(filter Filter, fn func(Frame, sim.Time)) {
	n.rx = append(n.rx, rxHandler{filter: filter, fn: fn})
}

// Send queues the frame for transmission. Frames from one node with equal
// ids keep FIFO order; across nodes the bus arbitrates by id. The payload
// is copied into the queue slot, so callers may reuse their buffer.
func (n *Node) Send(f Frame) error {
	if err := f.Validate(); err != nil {
		return err
	}
	if n.state == BusOff {
		return ErrBusOff
	}
	n.bus.seq++
	p := pending{id: f.ID, seq: n.bus.seq, dlc: uint8(len(f.Data)), ext: f.Extended, rtr: f.RTR}
	copy(p.data[:], f.Data)
	n.push(p)
	n.bus.kick()
	return nil
}

// push inserts p in arbitration order. A segmented transfer's next frame
// appends and a retransmission (seq 0) of the frame just popped takes
// the consumed slot before the head, both O(1); anything else is a
// binary search and a shift. A full queue at least half consumed moves
// its live run down instead of growing.
func (n *Node) push(p pending) {
	q, h := n.queue, n.head
	if h > 0 && h < len(q) && p.before(&q[h]) {
		n.head--
		q[n.head] = p
		return
	}
	if len(q) == cap(q) && h > 0 && 2*h >= len(q) {
		q, h = q[:copy(q, q[h:])], 0
	}
	i := len(q)
	if i > h && p.before(&q[i-1]) {
		for lo := h; lo < i; {
			if m := int(uint(lo+i) >> 1); p.before(&q[m]) {
				i = m
			} else {
				lo = m + 1
			}
		}
	}
	q = append(q, p)
	copy(q[i+1:], q[i:])
	q[i] = p
	n.queue, n.head = q, h
}

// pop removes and returns the queue head.
func (n *Node) pop() pending {
	n.head++
	return n.queue[n.head-1]
}

// Bus is one CAN bus shared by several nodes.
type Bus struct {
	eng     *sim.Engine
	name    string
	bitrate int
	nodes   []*Node
	busy    bool
	seq     uint64
	stats   Stats
	// Reusable in-flight transmission state: one frame is on the wire
	// at a time, so a single scratch slot (plus the preallocated finish
	// closure below) keeps the kick/finish cycle off the heap.
	txPending pending
	txNode    *Node
	txStart   sim.Time
	finishFn  func()
	// rxBuf is the scratch payload handed to taps and receive handlers;
	// it is valid only for the duration of the callback.
	rxBuf [MaxData]byte
	// fault decides the fate of each transmission; nil means Deliver.
	fault func(Frame) FaultAction
	// taps observe every delivered frame (bus analysers, test sniffers).
	taps []func(Frame, sim.Time)
}

// NewBus creates a bus on the shared engine with the given bitrate in
// bits per second (e.g. 500_000).
func NewBus(eng *sim.Engine, name string, bitrate int) *Bus {
	if bitrate <= 0 {
		bitrate = 500_000
	}
	return &Bus{eng: eng, name: name, bitrate: bitrate}
}

// Name returns the bus name.
func (b *Bus) Name() string { return b.name }

// Bitrate returns the configured bitrate.
func (b *Bus) Bitrate() int { return b.bitrate }

// Stats returns a snapshot of the bus counters.
func (b *Bus) Stats() Stats { return b.stats }

// AttachNode adds a controller to the bus.
func (b *Bus) AttachNode(name string) *Node {
	n := &Node{bus: b, name: name}
	b.nodes = append(b.nodes, n)
	return n
}

// SetFaultInjector installs fn to decide the fate of each transmission.
func (b *Bus) SetFaultInjector(fn func(Frame) FaultAction) { b.fault = fn }

// Tap registers an observer for every successfully delivered frame. Like
// a receive handler, the observer sees the frame over the bus's scratch
// buffer: it is read-only and valid only during the callback, so an
// analyser that keeps frames copies their Data.
func (b *Bus) Tap(fn func(Frame, sim.Time)) { b.taps = append(b.taps, fn) }

// FrameTime returns the modelled transmission duration of f on this bus.
func (b *Bus) FrameTime(f Frame) sim.Duration { return b.bitTime(f.Bits()) }

func (b *Bus) bitTime(bits int) sim.Duration {
	return sim.Duration((int64(bits)*int64(sim.Second) + int64(b.bitrate) - 1) / int64(b.bitrate))
}

// kick starts an arbitration round if the bus is idle. The in-flight
// state lives on the Bus and the completion closure is allocated once,
// so a steady frame stream schedules without heap traffic.
func (b *Bus) kick() {
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
	if b.finishFn == nil {
		b.finishFn = func() {
			b.busy = false
			b.stats.BusyTime += sim.Duration(b.eng.Now() - b.txStart)
			// Copy the in-flight state out of the shared slot first: the
			// fault injector or a receive handler may call Send, whose
			// kick() claims the now-idle bus and overwrites txPending.
			done := b.txPending
			b.finish(b.txNode, &done)
			b.kick()
		}
	}
	b.eng.After(b.bitTime(frameBits(int(winner.dlc), winner.rtr, winner.ext)), b.finishFn)
}

// arbitrate removes and returns the highest-priority pending frame across
// all non-bus-off nodes: lowest id wins, ties resolved by enqueue order,
// then by attach order. All queued frames compete, modelling controllers
// with multiple transmit mailboxes whose internal arbitration also picks
// the lowest id first; each node's queue head is its contender.
func (b *Bus) arbitrate() (pending, *Node, bool) {
	var best *Node
	for _, n := range b.nodes {
		if n.state == BusOff || n.head == len(n.queue) {
			continue
		}
		if best == nil || n.queue[n.head].before(&best.queue[best.head]) {
			best = n
		}
	}
	if best == nil {
		return pending{}, nil, false
	}
	return best.pop(), best, true
}

// finish applies fault injection and delivers or retransmits. Taps and
// receive handlers see a Frame over the bus's scratch buffer, valid only
// for the duration of the callback; every in-tree tap and receiver (the
// COM stack, transports, bus analysers) consumes or copies synchronously.
func (b *Bus) finish(node *Node, p *pending) {
	b.rxBuf = p.data
	f := Frame{ID: p.id, Extended: p.ext, RTR: p.rtr, Data: b.rxBuf[:p.dlc]}
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
			// Automatic retransmission with seq 0: the frame keeps its
			// place ahead of anything queued later with the same id.
			requeued := *p
			requeued.seq = 0
			node.push(requeued)
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
		tap(f, now)
	}
	for _, rx := range b.nodes {
		if rx == node {
			continue // no self-reception
		}
		for _, h := range rx.rx {
			if h.filter.Match(f.ID) {
				rx.Received++
				h.fn(f, now)
			}
		}
	}
}

func (b *Bus) updateState(n *Node) {
	switch {
	case n.tec > 255:
		n.state = BusOff
	case n.tec > 127:
		n.state = ErrorPassive
	default:
		n.state = ErrorActive
	}
}

// Load returns the fraction of time the bus has been busy since start.
func (b *Bus) Load() float64 {
	now := b.eng.Now()
	if now == 0 {
		return 0
	}
	return float64(b.stats.BusyTime) / float64(now)
}
