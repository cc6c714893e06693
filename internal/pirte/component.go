package pirte

import (
	"fmt"

	"dynautosar/internal/core"
	"dynautosar/internal/osek"
	"dynautosar/internal/rte"
	"dynautosar/internal/vfb"
)

// This file builds the AUTOSAR face of a plug-in SW-C: an ordinary
// component type whose static ports are the configured S-ports and whose
// runnables feed inbound data into the PIRTE. "AUTOSAR SW-Cs sandbox in
// the plug-ins ... while the underlying concepts, such as the RTE, BSW and
// legacy ASW remain unchanged" (paper section 3.1.1).

// typeIQueueLen buffers installation packages and acks on type I ports.
const typeIQueueLen = 32

// ComponentType renders the plug-in SW-C as a vfb component. Required
// ports get data-triggered runnables that hand arrivals to the PIRTE.
func (p *PIRTE) ComponentType() vfb.ComponentType {
	var ports []vfb.PortDef
	var runnables []vfb.RunnableSpec
	for _, sp := range p.cfg.SWCPorts {
		sp := sp
		// The rendered port name is captured by the data runnable, which
		// runs per delivery — render it once here, not per message.
		sname := sp.ID.String()
		iface := vfb.Interface{
			Name: fmt.Sprintf("%s-%s", p.cfg.SWC, sp.ID),
			Kind: vfb.SenderReceiver,
		}
		pd := vfb.PortDef{
			Name:      sname,
			Direction: sp.Direction,
			Iface:     iface,
		}
		if sp.Type == core.TypeI && sp.Direction == core.Required {
			pd.QueueLen = typeIQueueLen
		}
		ports = append(ports, pd)
		if sp.Direction == core.Required {
			runnables = append(runnables, vfb.RunnableSpec{
				Name:     "on" + sname,
				OnData:   []string{sname},
				Priority: p.cfg.DispatchPriority,
				Entry: func(rt vfb.Runtime) {
					for {
						data, ok := rt.Read(sname)
						if !ok {
							return
						}
						p.OnSWCData(sp.ID, data)
						if pd.QueueLen == 0 {
							return
						}
					}
				},
			})
		}
	}
	return vfb.ComponentType{
		Name:      string(p.cfg.SWC),
		Ports:     ports,
		Runnables: runnables,
	}
}

// Attach hosts the plug-in SW-C on an RTE under its SW-C id, wires the
// outbound SW-C writer, and declares the best-effort dispatcher task that
// executes plug-in activations below the built-in priorities.
func (p *PIRTE) Attach(r *rte.RTE) error {
	if p.attached {
		return fmt.Errorf("pirte: %s already attached", p.cfg.SWC)
	}
	name := string(p.cfg.SWC)
	if err := r.AddComponent(name, p.ComponentType()); err != nil {
		return err
	}
	// Outbound writes go through port handles resolved once, indexed by
	// SW-C port id (New rejects negative ids): no name is looked up per
	// message.
	var out []*rte.Port
	for _, sp := range p.cfg.SWCPorts {
		port, err := r.Port(name, sp.ID.String())
		if err != nil {
			return err
		}
		for int(sp.ID) >= len(out) {
			out = append(out, nil)
		}
		out[sp.ID] = port
	}
	p.writeSWC = func(sid core.SWCPortID, data []byte) error {
		if sid < 0 || int(sid) >= len(out) || out[sid] == nil {
			return fmt.Errorf("pirte: %s: unknown SW-C port %s", p.cfg.SWC, sid)
		}
		return out[sid].Write(data)
	}
	p.kernel = r.Kernel()
	p.dispatch = p.kernel.DeclareTask(osek.TaskConfig{
		Name:           name + ".pirte-dispatch",
		Priority:       p.cfg.DispatchPriority,
		ExecTime:       p.cfg.DispatchCost,
		MaxActivations: 1024,
		Body:           p.dispatchOne,
	})
	p.attached = true
	return nil
}

// dispatchOne pops and executes one queued plug-in event.
func (p *PIRTE) dispatchOne() {
	ev, ok := p.queue.pop()
	if !ok {
		return
	}
	p.execute(ev)
}
