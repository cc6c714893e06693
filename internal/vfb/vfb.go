// Package vfb models the AUTOSAR Virtual Function Bus view of application
// software (paper section 2): software component types with required and
// provided ports, sender-receiver and client-server port interfaces,
// runnables with their triggers, and composite components. The VFB lets
// SW-Cs communicate as if they were all allocated to the same ECU; the
// realisation that actually moves data — locally or over CAN — is the RTE
// (internal/rte).
package vfb

import (
	"fmt"

	"dynautosar/internal/core"
	"dynautosar/internal/osek"
	"dynautosar/internal/sim"
)

// InterfaceKind distinguishes the two interaction schemes of AUTOSAR port
// interfaces.
type InterfaceKind int

const (
	// SenderReceiver transports data elements from a provider to one or
	// more receivers.
	SenderReceiver InterfaceKind = iota + 1
	// ClientServer invokes operations on a server and returns results.
	ClientServer
)

// String implements fmt.Stringer.
func (k InterfaceKind) String() string {
	switch k {
	case SenderReceiver:
		return "sender-receiver"
	case ClientServer:
		return "client-server"
	}
	return fmt.Sprintf("InterfaceKind(%d)", int(k))
}

// Interface is a port interface: the contract of a port.
type Interface struct {
	Name string
	Kind InterfaceKind
	// MaxLen bounds the payload of a sender-receiver data element in
	// bytes; 0 means unbounded (local connections only).
	MaxLen int
	// Operations lists the operation names of a client-server interface.
	Operations []string
}

// HasOperation reports whether the interface declares the operation.
func (i Interface) HasOperation(op string) bool {
	for _, o := range i.Operations {
		if o == op {
			return true
		}
	}
	return false
}

// Validate checks internal consistency.
func (i Interface) Validate() error {
	switch i.Kind {
	case SenderReceiver:
		if len(i.Operations) > 0 {
			return fmt.Errorf("vfb: sender-receiver interface %q declares operations", i.Name)
		}
	case ClientServer:
		if len(i.Operations) == 0 {
			return fmt.Errorf("vfb: client-server interface %q declares no operations", i.Name)
		}
	default:
		return fmt.Errorf("vfb: interface %q has invalid kind %d", i.Name, i.Kind)
	}
	return nil
}

// PortDef declares one port of a component type.
type PortDef struct {
	Name      string
	Direction core.Direction
	Iface     Interface
	// QueueLen selects queued reception semantics for required
	// sender-receiver ports: arrivals are buffered FIFO up to this depth.
	// Zero selects AUTOSAR last-is-best semantics.
	QueueLen int
}

// Validate checks the definition.
func (p PortDef) Validate() error {
	if p.Name == "" {
		return fmt.Errorf("vfb: port with empty name")
	}
	if !p.Direction.Valid() {
		return fmt.Errorf("vfb: port %q has invalid direction", p.Name)
	}
	if err := p.Iface.Validate(); err != nil {
		return fmt.Errorf("vfb: port %q: %v", p.Name, err)
	}
	if p.QueueLen < 0 {
		return fmt.Errorf("vfb: port %q has negative queue length", p.Name)
	}
	if p.QueueLen > 0 && p.Iface.Kind != SenderReceiver {
		return fmt.Errorf("vfb: port %q: queued semantics require sender-receiver", p.Name)
	}
	return nil
}

// Runtime is the API a runnable uses to touch its component's ports. It is
// implemented by the RTE; runnables never see other components directly,
// which is what makes SW-Cs relocatable (paper section 2).
type Runtime interface {
	// Write sends data on a provided sender-receiver port.
	Write(port string, data []byte) error
	// Read returns the latest (or, for queued ports, oldest buffered)
	// value of a required sender-receiver port. ok is false when nothing
	// has arrived (or the queue is empty).
	Read(port string) (data []byte, ok bool)
	// Call invokes an operation through a required client-server port.
	Call(port, op string, arg []byte) ([]byte, error)
	// Now returns the current simulated time.
	Now() sim.Time
	// Component returns the name of the running component instance.
	Component() string
}

// RunnableSpec declares one runnable entity of a component and its RTE
// trigger.
type RunnableSpec struct {
	Name string
	// Period > 0 gives a timing-event trigger with this cycle.
	Period sim.Duration
	// OnData triggers the runnable when data arrives on any of these
	// required ports.
	OnData []string
	// OnInvoke names client-server operations (of provided ports) served
	// by this runnable; Handler must be set.
	OnInvoke []string
	// Entry is the runnable body for timing/data triggers.
	Entry func(rt Runtime)
	// Handler serves operation invocations for OnInvoke runnables.
	Handler func(rt Runtime, op string, arg []byte) ([]byte, error)
	// ExecTime is the modelled execution time per activation.
	ExecTime sim.Duration
	// Priority of the OS task the runnable is mapped to.
	Priority osek.Priority
}

// ComponentType describes an atomic SW-C: its ports and runnables.
type ComponentType struct {
	Name      string
	Ports     []PortDef
	Runnables []RunnableSpec
}

// Port looks up a port definition by name.
func (c ComponentType) Port(name string) (PortDef, bool) {
	for _, p := range c.Ports {
		if p.Name == name {
			return p, true
		}
	}
	return PortDef{}, false
}

// Validate checks the component type: unique port names, valid ports,
// runnable triggers that reference existing ports, and each operation
// served by one runnable that has no other trigger.
func (c ComponentType) Validate() error {
	if c.Name == "" {
		return fmt.Errorf("vfb: component with empty name")
	}
	seen := make(map[string]bool, len(c.Ports))
	for _, p := range c.Ports {
		if err := p.Validate(); err != nil {
			return fmt.Errorf("vfb: component %q: %v", c.Name, err)
		}
		if seen[p.Name] {
			return fmt.Errorf("vfb: component %q: duplicate port %q", c.Name, p.Name)
		}
		seen[p.Name] = true
	}
	rnames := make(map[string]bool, len(c.Runnables))
	served := make(map[string]bool)
	for _, r := range c.Runnables {
		if r.Name == "" {
			return fmt.Errorf("vfb: component %q: runnable with empty name", c.Name)
		}
		if rnames[r.Name] {
			return fmt.Errorf("vfb: component %q: duplicate runnable %q", c.Name, r.Name)
		}
		rnames[r.Name] = true
		triggers := 0
		if r.Period > 0 {
			triggers++
		}
		if len(r.OnData) > 0 {
			triggers++
		}
		if len(r.OnInvoke) > 0 {
			triggers++
		}
		if triggers == 0 {
			return fmt.Errorf("vfb: component %q: runnable %q has no trigger", c.Name, r.Name)
		}
		if len(r.OnInvoke) > 0 && triggers > 1 {
			return fmt.Errorf("vfb: component %q: runnable %q serves operations and has a timing or data trigger",
				c.Name, r.Name)
		}
		for _, op := range r.OnInvoke {
			if served[op] {
				return fmt.Errorf("vfb: component %q: operation %q served twice", c.Name, op)
			}
			served[op] = true
		}
		for _, port := range r.OnData {
			pd, ok := c.Port(port)
			if !ok {
				return fmt.Errorf("vfb: component %q: runnable %q triggers on unknown port %q",
					c.Name, r.Name, port)
			}
			if pd.Direction != core.Required || pd.Iface.Kind != SenderReceiver {
				return fmt.Errorf("vfb: component %q: runnable %q: data trigger needs a required sender-receiver port, got %q",
					c.Name, r.Name, port)
			}
		}
		if len(r.OnInvoke) > 0 && r.Handler == nil {
			return fmt.Errorf("vfb: component %q: runnable %q serves operations but has no handler",
				c.Name, r.Name)
		}
		if (r.Period > 0 || len(r.OnData) > 0) && r.Entry == nil {
			return fmt.Errorf("vfb: component %q: runnable %q has a trigger but no entry", c.Name, r.Name)
		}
	}
	return nil
}
