// Package rte realises the Virtual Function Bus on one ECU (paper section
// 2): it owns the component instances, routes sender-receiver data between
// their ports — locally in memory, or across ECUs through the COM
// transport — dispatches client-server calls, and maps runnables onto OSEK
// tasks triggered by timing events or data reception.
//
// Like a generated AUTOSAR RTE it resolves connections at configuration
// time: each Port holds its receivers, transports, triggered tasks and
// server, so a write fans out by pointer and a Port handle skips even
// the name lookup of the name-based entry points.
//
// The RTE is the layer the dynamic component model deliberately leaves
// untouched: plug-in SW-Cs look like ordinary components to it, and all
// dynamic behaviour stays inside the PIRTE above (paper section 3.1.1).
package rte

import (
	"fmt"

	"dynautosar/internal/com"
	"dynautosar/internal/core"
	"dynautosar/internal/osek"
	"dynautosar/internal/sim"
	"dynautosar/internal/vfb"
)

// defaultActivations bounds queued task activations for data-triggered
// runnables.
const defaultActivations = 16

// Port is a port of a component instance with its connections resolved,
// the handle a generated RTE's Rte_Write_<port>_<data> stands for.
type Port struct {
	def  vfb.PortDef
	comp *component
	// receivers are the local required ports written to (Connect).
	receivers []*Port
	// net are the transports toward other ECUs (BindNetworkTx).
	net []*com.Transport
	// tasks are the data-triggered runnables of a required port.
	tasks []osek.TaskID
	// server serves a required client-server port (Connect).
	server *component
	last   []byte
	fresh  bool
	queue  [][]byte
	// overruns counts arrivals dropped because a bounded queue was full.
	overruns uint64
}

// component is one instance. It is also the vfb.Runtime handed to its
// runnables, which resolve ports in their own component only.
type component struct {
	r     *RTE
	name  string
	typ   vfb.ComponentType
	ports map[string]*Port
	// servers maps the operations of provided client-server ports to
	// their handlers.
	servers map[string]vfb.RunnableSpec
}

// RTE is one ECU's runtime environment.
type RTE struct {
	kernel *osek.Kernel
	comps  map[string]*component
	// Writes and Deliveries count RTE activity.
	Writes     uint64
	Deliveries uint64
}

// New creates an RTE on the kernel.
func New(kernel *osek.Kernel) *RTE {
	return &RTE{kernel: kernel, comps: make(map[string]*component)}
}

// Kernel returns the OSEK kernel the RTE maps runnables onto.
func (r *RTE) Kernel() *osek.Kernel { return r.kernel }

// Now returns the current simulated time.
func (r *RTE) Now() sim.Time { return r.kernel.Now() }

// AddComponent instantiates a component type under the given instance
// name, declaring OS tasks for its runnables. A type it refuses leaves
// no task or alarm behind.
func (r *RTE) AddComponent(name string, typ vfb.ComponentType) error {
	if err := typ.Validate(); err != nil {
		return err
	}
	if _, dup := r.comps[name]; dup {
		return fmt.Errorf("rte: component %q already present", name)
	}
	c := &component{
		r:       r,
		name:    name,
		typ:     typ,
		ports:   make(map[string]*Port, len(typ.Ports)),
		servers: make(map[string]vfb.RunnableSpec),
	}
	for _, p := range typ.Ports {
		c.ports[p.Name] = &Port{def: p, comp: c}
	}
	for _, run := range typ.Runnables {
		if len(run.OnInvoke) > 0 {
			for _, op := range run.OnInvoke {
				c.servers[op] = run
			}
			continue
		}
		task := r.kernel.DeclareTask(osek.TaskConfig{
			Name:           name + "." + run.Name,
			Priority:       run.Priority,
			ExecTime:       run.ExecTime,
			MaxActivations: defaultActivations,
			Body:           func() { run.Entry(c) },
		})
		if run.Period > 0 {
			alarm := r.kernel.DeclareAlarm(osek.AlarmAction{Task: task})
			if err := r.kernel.SetRelAlarm(alarm, run.Period, run.Period); err != nil {
				return err
			}
		}
		for _, port := range run.OnData {
			p := c.ports[port]
			p.tasks = append(p.tasks, task)
		}
	}
	r.comps[name] = c
	return nil
}

// Component returns the component type of an instance.
func (r *RTE) Component(name string) (vfb.ComponentType, bool) {
	c, ok := r.comps[name]
	if !ok {
		return vfb.ComponentType{}, false
	}
	return c.typ, true
}

// Runtime returns the vfb.Runtime handle of a component instance, the
// interface handed to its runnables.
func (r *RTE) Runtime(name string) (vfb.Runtime, error) {
	c, ok := r.comps[name]
	if !ok {
		return nil, fmt.Errorf("rte: unknown component %q", name)
	}
	return c, nil
}

// Port resolves a port of a component instance. Connections made later
// still reach writes through the handle.
func (r *RTE) Port(comp, port string) (*Port, error) {
	c, ok := r.comps[comp]
	if !ok {
		return nil, fmt.Errorf("rte: unknown component %q", comp)
	}
	return c.port(port)
}

// Connect wires a provided port to a required port on this ECU. For
// sender-receiver ports data written on from is delivered to to; for
// client-server ports calls through to's required port reach from's
// component.
func (r *RTE) Connect(fromComp, fromPort, toComp, toPort string) error {
	fc, ok := r.comps[fromComp]
	if !ok {
		return fmt.Errorf("rte: unknown component %q", fromComp)
	}
	tc, ok := r.comps[toComp]
	if !ok {
		return fmt.Errorf("rte: unknown component %q", toComp)
	}
	fp, err := fc.port(fromPort)
	if err != nil {
		return err
	}
	tp, err := tc.port(toPort)
	if err != nil {
		return err
	}
	if fp.def.Direction != core.Provided {
		return fmt.Errorf("rte: %s is not provided", fp)
	}
	if tp.def.Direction != core.Required {
		return fmt.Errorf("rte: %s is not required", tp)
	}
	if fp.def.Iface.Kind != tp.def.Iface.Kind {
		return fmt.Errorf("rte: interface kind mismatch between %s and %s", fp, tp)
	}
	if fp.def.Iface.Kind == vfb.ClientServer {
		tp.server = fp.comp
		return nil
	}
	fp.receivers = append(fp.receivers, tp)
	return nil
}

// AddComposite flattens a composite component and hosts all its atomic
// instances and internal connections on this ECU.
func (r *RTE) AddComposite(c vfb.Composite) error {
	instances, conns, err := c.Flatten()
	if err != nil {
		return err
	}
	for _, inst := range instances {
		if err := r.AddComponent(inst.Instance, inst.Type); err != nil {
			return err
		}
	}
	for _, conn := range conns {
		if err := r.Connect(conn.FromInstance, conn.FromPort, conn.ToInstance, conn.ToPort); err != nil {
			return err
		}
	}
	return nil
}

// BindNetworkTx routes writes on a provided sender-receiver port into a
// COM transport, realising a cross-ECU VFB connection.
func (r *RTE) BindNetworkTx(comp, port string, tr *com.Transport) error {
	p, err := r.senderReceiver(comp, port, core.Provided)
	if err != nil {
		return err
	}
	p.net = append(p.net, tr)
	return nil
}

// BindNetworkRx delivers payloads reassembled by the transport to a
// required sender-receiver port, completing a cross-ECU connection.
func (r *RTE) BindNetworkRx(tr *com.Transport, comp, port string) error {
	p, err := r.senderReceiver(comp, port, core.Required)
	if err != nil {
		return err
	}
	tr.OnPayload(func(payload []byte, _ sim.Time) { p.deliver(payload) })
	return nil
}

func (r *RTE) senderReceiver(comp, port string, dir core.Direction) (*Port, error) {
	p, err := r.Port(comp, port)
	if err != nil {
		return nil, err
	}
	if p.def.Direction != dir || p.def.Iface.Kind != vfb.SenderReceiver {
		return nil, fmt.Errorf("rte: %s is not a %v sender-receiver port", p, dir)
	}
	return p, nil
}

// Write implements the Rte_Write side of sender-receiver communication for
// the named component instance.
func (r *RTE) Write(comp, port string, data []byte) error {
	c, ok := r.comps[comp]
	if !ok {
		return fmt.Errorf("rte: unknown component %q", comp)
	}
	return c.Write(port, data)
}

// Read implements Rte_Read/Rte_Receive for a required port.
func (r *RTE) Read(comp, port string) ([]byte, bool) {
	c, ok := r.comps[comp]
	if !ok {
		return nil, false
	}
	return c.Read(port)
}

// Call implements Rte_Call: a synchronous client-server invocation through
// a required port.
func (r *RTE) Call(comp, port, op string, arg []byte) ([]byte, error) {
	c, ok := r.comps[comp]
	if !ok {
		return nil, fmt.Errorf("rte: unknown component %q", comp)
	}
	return c.Call(port, op, arg)
}

// Overruns returns dropped arrivals on a queued port, for diagnostics.
func (r *RTE) Overruns(comp, port string) uint64 {
	if p, err := r.Port(comp, port); err == nil {
		return p.overruns
	}
	return 0
}

// String names the port as component.port.
func (p *Port) String() string { return p.comp.name + "." + p.def.Name }

// Write sends data on a provided sender-receiver port to every local
// receiver and network transport connected to it.
func (p *Port) Write(data []byte) error {
	if p.def.Direction != core.Provided || p.def.Iface.Kind != vfb.SenderReceiver {
		return fmt.Errorf("rte: %s is not a provided sender-receiver port", p)
	}
	if p.def.Iface.MaxLen > 0 && len(data) > p.def.Iface.MaxLen {
		return fmt.Errorf("rte: %s: %d bytes exceed interface limit %d", p, len(data), p.def.Iface.MaxLen)
	}
	p.comp.r.Writes++
	// No defensive copy: deliver copies into each receiver's own buffer
	// and Transport.Send into frame payloads, so data is never retained.
	for _, dst := range p.receivers {
		dst.deliver(data)
	}
	for _, tr := range p.net {
		if err := tr.Send(data); err != nil {
			return fmt.Errorf("rte: network write on %s: %v", p, err)
		}
	}
	return nil
}

// deliver stores data at a required port and activates data-triggered
// runnables.
func (p *Port) deliver(data []byte) {
	r := p.comp.r
	r.Deliveries++
	if p.def.QueueLen > 0 {
		if len(p.queue) >= p.def.QueueLen {
			p.overruns++
		} else {
			p.queue = append(p.queue, append([]byte(nil), data...))
		}
	} else {
		// Last-value semantics: the buffer is reused, so a slice handed out
		// by Read is valid until the next arrival on the same port.
		p.last = append(p.last[:0], data...)
		p.fresh = true
	}
	for _, task := range p.tasks {
		_ = r.kernel.ActivateTask(task)
	}
}

func (c *component) port(name string) (*Port, error) {
	p, ok := c.ports[name]
	if !ok {
		return nil, fmt.Errorf("rte: %s has no port %q", c.name, name)
	}
	return p, nil
}

func (c *component) Write(port string, data []byte) error {
	p, err := c.port(port)
	if err != nil {
		return err
	}
	return p.Write(data)
}

func (c *component) Read(port string) ([]byte, bool) {
	p, ok := c.ports[port]
	if !ok {
		return nil, false
	}
	if p.def.QueueLen > 0 {
		if len(p.queue) == 0 {
			return nil, false
		}
		head := p.queue[0]
		p.queue = p.queue[1:]
		return head, true
	}
	if !p.fresh {
		return p.last, false
	}
	p.fresh = false
	return p.last, true
}

func (c *component) Call(port, op string, arg []byte) ([]byte, error) {
	p, err := c.port(port)
	if err != nil {
		return nil, err
	}
	if p.def.Direction != core.Required || p.def.Iface.Kind != vfb.ClientServer {
		return nil, fmt.Errorf("rte: %s is not a required client-server port", p)
	}
	if !p.def.Iface.HasOperation(op) {
		return nil, fmt.Errorf("rte: %s does not declare operation %q", p, op)
	}
	if p.server == nil {
		return nil, fmt.Errorf("rte: %s is not connected to a server", p)
	}
	spec, ok := p.server.servers[op]
	if !ok {
		return nil, fmt.Errorf("rte: server %q does not implement %q", p.server.name, op)
	}
	return spec.Handler(p.server, op, arg)
}

func (c *component) Now() sim.Time     { return c.r.Now() }
func (c *component) Component() string { return c.name }
