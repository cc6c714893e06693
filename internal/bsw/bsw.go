// Package bsw provides the basic-software services of the AUTOSAR layer
// below the RTE that the paper's platform exercises (section 2): an IO
// hardware abstraction with named digital/analog/PWM channels (the wheels
// servo, speed actuator and speed sensor of the model car), non-volatile
// memory blocks, a watchdog manager used to supervise the plug-in SW-Cs,
// and the ECU state manager. Like the channel ids of a configured AUTOSAR
// IoHwAb, a channel name is resolved once, into a Channel handle that the
// software and hardware models then access per sample.
package bsw

import (
	"errors"
	"fmt"
	"sort"

	"dynautosar/internal/sim"
)

// ChannelKind classifies IoHwAb channels.
type ChannelKind int

const (
	// Digital channels carry 0/1.
	Digital ChannelKind = iota + 1
	// Analog channels carry a signed raw value (e.g. ADC counts).
	Analog
	// PWM channels carry a duty value.
	PWM
)

// String implements fmt.Stringer.
func (k ChannelKind) String() string {
	switch k {
	case Digital:
		return "digital"
	case Analog:
		return "analog"
	case PWM:
		return "pwm"
	}
	return fmt.Sprintf("ChannelKind(%d)", int(k))
}

// ErrUnknownChannel is returned for unregistered channel names.
var ErrUnknownChannel = errors.New("bsw: unknown IoHwAb channel")

// Channel is one IoHwAb channel. Software and hardware models resolve it
// once with IoHwAb.Channel and access it per sample without a name
// lookup; the name-based IoHwAb methods are wrappers over it.
type Channel struct {
	io      *IoHwAb
	kind    ChannelKind
	value   int64
	min     int64
	max     int64
	onWrite []func(int64, sim.Time)
}

// IoHwAb is the IO hardware abstraction of one ECU: a registry of named
// channels connecting the software to (simulated) sensors and actuators.
type IoHwAb struct {
	eng      *sim.Engine
	channels map[string]*Channel
	// Writes counts actuator accesses for diagnostics.
	Writes uint64
}

// NewIoHwAb creates an empty IO hardware abstraction.
func NewIoHwAb(eng *sim.Engine) *IoHwAb {
	return &IoHwAb{eng: eng, channels: make(map[string]*Channel)}
}

// AddChannel registers a channel with a value range. Writes outside
// [min,max] are clamped — the fault protection for critical signals the
// paper requires the built-in software to provide (section 3.1.1).
func (io *IoHwAb) AddChannel(name string, kind ChannelKind, min, max int64) error {
	if name == "" {
		return fmt.Errorf("bsw: channel with empty name")
	}
	if _, dup := io.channels[name]; dup {
		return fmt.Errorf("bsw: channel %q already registered", name)
	}
	if min > max {
		return fmt.Errorf("bsw: channel %q has inverted range [%d,%d]", name, min, max)
	}
	io.channels[name] = &Channel{io: io, kind: kind, min: min, max: max}
	return nil
}

// Channel resolves a registered channel.
func (io *IoHwAb) Channel(name string) (*Channel, error) {
	ch, ok := io.channels[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownChannel, name)
	}
	return ch, nil
}

// Write sets an actuator channel, clamping to the configured range, and
// notifies observers. It returns the value actually applied.
func (ch *Channel) Write(value int64) int64 {
	if value < ch.min {
		value = ch.min
	}
	if value > ch.max {
		value = ch.max
	}
	if ch.kind == Digital && value != 0 {
		value = 1
	}
	ch.value = value
	ch.io.Writes++
	for _, fn := range ch.onWrite {
		fn(value, ch.io.eng.Now())
	}
	return value
}

// Read returns the current value (sensor reading or last actuator
// command).
func (ch *Channel) Read() int64 { return ch.value }

// Set updates a sensor channel from a hardware model without invoking
// actuator observers.
func (ch *Channel) Set(value int64) { ch.value = value }

// OnWrite registers an observer for actuator commands on the channel,
// used by hardware models (and tests) to react to software output.
func (ch *Channel) OnWrite(fn func(int64, sim.Time)) { ch.onWrite = append(ch.onWrite, fn) }

// Write is Channel.Write by name.
func (io *IoHwAb) Write(name string, value int64) (int64, error) {
	ch, err := io.Channel(name)
	if err != nil {
		return 0, err
	}
	return ch.Write(value), nil
}

// Read is Channel.Read by name.
func (io *IoHwAb) Read(name string) (int64, error) {
	ch, err := io.Channel(name)
	if err != nil {
		return 0, err
	}
	return ch.Read(), nil
}

// Set is Channel.Set by name.
func (io *IoHwAb) Set(name string, value int64) error {
	ch, err := io.Channel(name)
	if err == nil {
		ch.Set(value)
	}
	return err
}

// OnWrite is Channel.OnWrite by name.
func (io *IoHwAb) OnWrite(name string, fn func(int64, sim.Time)) error {
	ch, err := io.Channel(name)
	if err == nil {
		ch.OnWrite(fn)
	}
	return err
}

// Channels returns the registered channel names, sorted.
func (io *IoHwAb) Channels() []string {
	names := make([]string, 0, len(io.channels))
	for n := range io.channels {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// --- NvM --------------------------------------------------------------------

// NvM is the non-volatile memory manager: named blocks that survive an ECU
// "reboot" within one simulation. The plug-in PIRTE persists its installed
// plug-in registry here so a restore after ECU replacement can be
// reproduced (paper section 3.2.2).
type NvM struct {
	blocks map[string][]byte
	// CommitCount counts write-backs, a stand-in for flash wear metrics.
	CommitCount uint64
}

// NewNvM creates an empty NvM.
func NewNvM() *NvM { return &NvM{blocks: make(map[string][]byte)} }

// WriteBlock stores a copy of data under the block name.
func (n *NvM) WriteBlock(name string, data []byte) {
	n.blocks[name] = append([]byte(nil), data...)
	n.CommitCount++
}

// ReadBlock returns a copy of the block contents.
func (n *NvM) ReadBlock(name string) ([]byte, bool) {
	b, ok := n.blocks[name]
	if !ok {
		return nil, false
	}
	return append([]byte(nil), b...), true
}

// DeleteBlock removes a block.
func (n *NvM) DeleteBlock(name string) { delete(n.blocks, name) }

// Blocks returns the existing block names, sorted.
func (n *NvM) Blocks() []string {
	names := make([]string, 0, len(n.blocks))
	for b := range n.blocks {
		names = append(names, b)
	}
	sort.Strings(names)
	return names
}

// --- WdgM -------------------------------------------------------------------

// WdgM is the watchdog manager: supervised entities must checkpoint within
// their deadline or the expiry callback fires. The built-in software uses
// it to monitor the plug-in SW-Cs' exposed API (paper section 3.1.1).
type WdgM struct {
	eng      *sim.Engine
	entities map[string]*supervised
}

type supervised struct {
	deadline sim.Duration
	onExpire func(string)
	event    sim.EventID
	alive    bool
	// Expirations counts missed deadlines.
	Expirations uint64
}

// NewWdgM creates a watchdog manager.
func NewWdgM(eng *sim.Engine) *WdgM {
	return &WdgM{eng: eng, entities: make(map[string]*supervised)}
}

// Supervise registers an entity with its checkpoint deadline; onExpire is
// called with the entity name each time the deadline passes without a
// checkpoint. Supervision starts at the first Checkpoint.
func (w *WdgM) Supervise(name string, deadline sim.Duration, onExpire func(string)) error {
	if name == "" || deadline <= 0 {
		return fmt.Errorf("bsw: invalid supervision for %q", name)
	}
	if _, dup := w.entities[name]; dup {
		return fmt.Errorf("bsw: entity %q already supervised", name)
	}
	w.entities[name] = &supervised{deadline: deadline, onExpire: onExpire}
	return nil
}

// Checkpoint resets the entity's deadline.
func (w *WdgM) Checkpoint(name string) error {
	s, ok := w.entities[name]
	if !ok {
		return fmt.Errorf("bsw: entity %q not supervised", name)
	}
	if s.alive {
		w.eng.Cancel(s.event)
	}
	s.alive = true
	s.event = w.eng.After(s.deadline, func() {
		s.alive = false
		s.Expirations++
		if s.onExpire != nil {
			s.onExpire(name)
		}
	})
	return nil
}

// Alive reports whether the entity is within its deadline.
func (w *WdgM) Alive(name string) bool {
	s, ok := w.entities[name]
	return ok && s.alive
}

// Expirations returns the number of missed deadlines of the entity.
func (w *WdgM) Expirations(name string) uint64 {
	if s, ok := w.entities[name]; ok {
		return s.Expirations
	}
	return 0
}

// --- EcuM -------------------------------------------------------------------

// EcuState is the ECU state manager's phase.
type EcuState int

const (
	// StateOff is the initial state.
	StateOff EcuState = iota
	// StateStartup covers BSW and RTE initialisation.
	StateStartup
	// StateRun is normal operation.
	StateRun
	// StateShutdown is the controlled stop.
	StateShutdown
)

// String implements fmt.Stringer.
func (s EcuState) String() string {
	switch s {
	case StateOff:
		return "off"
	case StateStartup:
		return "startup"
	case StateRun:
		return "run"
	case StateShutdown:
		return "shutdown"
	}
	return fmt.Sprintf("EcuState(%d)", int(s))
}

// EcuM is a minimal ECU state manager with ordered state listeners.
type EcuM struct {
	state     EcuState
	listeners []func(EcuState)
}

// NewEcuM creates a state manager in StateOff.
func NewEcuM() *EcuM { return &EcuM{} }

// State returns the current state.
func (m *EcuM) State() EcuState { return m.state }

// OnTransition registers a listener invoked after every state change.
func (m *EcuM) OnTransition(fn func(EcuState)) { m.listeners = append(m.listeners, fn) }

// Transition moves to the next state; only the Off->Startup->Run->Shutdown
// order (and Shutdown->Off for restart) is legal.
func (m *EcuM) Transition(to EcuState) error {
	legal := map[EcuState]EcuState{
		StateOff:      StateStartup,
		StateStartup:  StateRun,
		StateRun:      StateShutdown,
		StateShutdown: StateOff,
	}
	if legal[m.state] != to {
		return fmt.Errorf("bsw: illegal ECU state transition %v -> %v", m.state, to)
	}
	m.state = to
	for _, fn := range m.listeners {
		fn(to)
	}
	return nil
}
