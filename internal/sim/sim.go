// Package sim provides the discrete-event simulation engine underneath the
// in-vehicle substrate: the OSEK kernels of all ECUs and the CAN buses of
// one vehicle share a single engine, so cross-ECU timing (task activation,
// frame arbitration, end-to-end signal latency) is globally ordered and
// fully deterministic.
//
// Simulated time is measured in microseconds. Events scheduled for the
// same instant fire in scheduling order, which makes test runs repeatable.
package sim

import (
	"fmt"
	"math"
	"time"
)

// Time is an absolute simulated time in microseconds since simulation
// start.
type Time int64

// Duration is a span of simulated time in microseconds.
type Duration int64

// Common durations.
const (
	Microsecond Duration = 1
	Millisecond Duration = 1000
	Second      Duration = 1000 * 1000
)

// End is a Time after every schedulable event.
const End Time = math.MaxInt64

// String renders the time as seconds with microsecond resolution.
func (t Time) String() string {
	return fmt.Sprintf("%d.%06vs", int64(t)/int64(Second), int64(t)%int64(Second))
}

// Add returns the time offset by d.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// EventID identifies a scheduled event so it can be cancelled. It packs
// the slot of the event's pooled node (high 32 bits) with the node's use
// count (low 32 bits). Every Schedule that reuses a node moves its use
// count on, so the id of a fired or cancelled event goes stale and
// cancelling it is a no-op. Use counts start at 1, so the zero EventID
// names no event.
type EventID uint64

// entry is one element of the event heap: the firing key (at, seq) and
// the slot of the node holding the callback.
type entry struct {
	at   Time
	seq  uint64
	slot uint32
}

// before is the firing order: earliest time first, then scheduling order.
func (a *entry) before(b *entry) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

// node is one pooled event node. fn is nil once the event fired or was
// cancelled; the node stays out of the free list until its heap entry
// has been popped, so a node is never in the heap twice.
type node struct {
	fn  func()
	use uint32
}

// Engine is the discrete-event scheduler. The zero value is ready for
// Schedule, After, Cancel, Step, Run and RunUntil; Inject and
// AwaitInjected need the channel NewEngine makes. Engine is not safe for
// concurrent use; the whole in-vehicle simulation is single-threaded by
// design, with external (real-time) inputs injected at explicit
// synchronisation points (see Inject).
type Engine struct {
	now Time
	seq uint64
	// queue is a binary min-heap in firing order (entry.before).
	queue []entry
	// nodes are the event nodes, addressed by slot; free lists the
	// slots ready for reuse. A steady stream of timers and frame
	// completions (the data plane at full rate) then schedules without
	// touching the heap.
	nodes []node
	free  []uint32
	// live counts the scheduled events that have neither fired nor been
	// cancelled.
	live int
	// injected holds thread-unsafe callbacks handed over from other
	// goroutines via Inject; they are drained at the next Step.
	injected chan func()
	stopped  bool
}

// NewEngine returns an engine at time zero.
func NewEngine() *Engine {
	return &Engine{injected: make(chan func(), 1024)}
}

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// Schedule registers fn to run at the absolute time at. Scheduling in the
// past (or present) runs the event at the current time, after already
// queued events for that time. The returned id can be passed to Cancel.
func (e *Engine) Schedule(at Time, fn func()) EventID {
	if at < e.now {
		at = e.now
	}
	e.seq++
	var slot uint32
	if n := len(e.free); n > 0 {
		slot = e.free[n-1]
		e.free = e.free[:n-1]
	} else {
		slot = uint32(len(e.nodes))
		e.nodes = append(e.nodes, node{})
	}
	nd := &e.nodes[slot]
	if nd.use++; nd.use == 0 {
		nd.use = 1
	}
	nd.fn = fn
	e.push(entry{at: at, seq: e.seq, slot: slot})
	e.live++
	return EventID(uint64(slot)<<32 | uint64(nd.use))
}

// After registers fn to run d from now.
func (e *Engine) After(d Duration, fn func()) EventID {
	if d < 0 {
		d = 0
	}
	return e.Schedule(e.now.Add(d), fn)
}

// Cancel stops the event from firing. Cancelling an unknown, fired or
// already cancelled event is a no-op.
func (e *Engine) Cancel(id EventID) {
	slot := id >> 32
	if slot >= EventID(len(e.nodes)) {
		return
	}
	if nd := &e.nodes[slot]; nd.use == uint32(id) && nd.fn != nil {
		nd.fn = nil
		e.live--
	}
}

// Pending returns the number of live scheduled events.
func (e *Engine) Pending() int { return e.live }

// push adds x to the event heap.
func (e *Engine) push(x entry) {
	e.queue = append(e.queue, x)
	siftUp(e.queue, len(e.queue)-1, x)
}

// pop removes the heap head and returns it with the node's callback,
// releasing the node: a cancelled event comes back with a nil callback.
// The hole the head leaves walks down along the earlier children to a
// leaf, and the last entry is sifted up from there.
func (e *Engine) pop() (entry, func()) {
	q := e.queue
	top, last, i := q[0], len(q)-1, 0
	for c := 1; c < last; c = 2*i + 1 {
		if c+1 < last && q[c+1].before(&q[c]) {
			c++
		}
		q[i] = q[c]
		i = c
	}
	siftUp(q, i, q[last])
	e.queue = q[:last]
	nd := &e.nodes[top.slot]
	fn := nd.fn
	nd.fn = nil
	e.free = append(e.free, top.slot)
	return top, fn
}

// siftUp stores x at the hole i of heap q, first moving down every
// ancestor that x must precede.
func siftUp(q []entry, i int, x entry) {
	for i > 0 {
		parent := (i - 1) / 2
		if !x.before(&q[parent]) {
			break
		}
		q[i] = q[parent]
		i = parent
	}
	q[i] = x
}

// Inject hands a callback from another goroutine into the simulation; it
// runs at the engine's current time when the main loop next drains injected
// work. This is the single synchronisation point between the real-time
// world (trusted server sockets, external endpoints) and simulated time —
// exactly where the paper's ECM crosses from external communication into
// RTE writes.
func (e *Engine) Inject(fn func()) {
	e.injected <- fn
}

// drainInjected runs all externally injected callbacks at the current
// time. The engine goroutine is the only receiver, so a non-empty channel
// never blocks it.
func (e *Engine) drainInjected() {
	for len(e.injected) > 0 {
		(<-e.injected)()
	}
}

// Step executes the next event, advancing time to it. It reports whether
// an event was executed.
func (e *Engine) Step() bool {
	e.drainInjected()
	for len(e.queue) > 0 {
		ev, fn := e.pop()
		if fn == nil {
			continue // cancelled
		}
		e.live--
		e.now = ev.at
		fn()
		return true
	}
	return false
}

// RunUntil executes events until the queue is exhausted or the next event
// lies beyond t; time then advances to t. Injected callbacks are drained
// between events.
func (e *Engine) RunUntil(t Time) {
	e.stopped = false
	for !e.stopped {
		e.drainInjected()
		if next, ok := e.Next(); !ok || next > t {
			break
		}
		e.Step()
	}
	if t > e.now {
		e.now = t
	}
}

// RunFor advances the simulation by d.
func (e *Engine) RunFor(d Duration) { e.RunUntil(e.now.Add(d)) }

// Run executes events until none remain or Stop is called.
func (e *Engine) Run() {
	e.stopped = false
	for !e.stopped && e.Step() {
	}
}

// Stop makes the current Run/RunUntil return after the current event.
func (e *Engine) Stop() { e.stopped = true }

// Next reports the time of the next live scheduled event. The second
// return is false when the queue is empty. Drivers that interleave
// simulated time with real goroutines (the fleet simulator's pump) use
// it to decide whether stepping would advance the clock past a barrier.
func (e *Engine) Next() (Time, bool) {
	for len(e.queue) > 0 {
		if e.nodes[e.queue[0].slot].fn != nil {
			return e.queue[0].at, true
		}
		e.pop() // a cancelled head
	}
	return 0, false
}

// AwaitInjected drains externally injected callbacks at the current
// simulated time, blocking up to timeout of *real* time for the first
// one when none are queued. It reports whether any callback ran. This
// is the pump-side counterpart of Inject: a driver that has no due
// events can park here instead of spinning, and wakes the moment a
// real-time goroutine (a server socket, a vehicle link) hands work in.
func (e *Engine) AwaitInjected(timeout time.Duration) bool {
	if len(e.injected) == 0 {
		if timeout <= 0 {
			return false
		}
		t := time.NewTimer(timeout)
		select {
		case fn := <-e.injected:
			t.Stop()
			fn()
		case <-t.C:
			return false
		}
	}
	e.drainInjected()
	return true
}
