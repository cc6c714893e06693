package pirte

import (
	"fmt"

	"dynautosar/internal/core"
	"dynautosar/internal/plugin"
	"dynautosar/internal/sim"
)

// This file implements the type-dependent data paths of section 3.1.3:
// outbound plug-in writes through the PLC links (host.PortWrite), inbound
// SW-C port traffic (OnSWCData), and the type I message protocol carrying
// installation packages, acks and external payloads.

// host adapts one installed plug-in to the vm.Host interface.
type host struct {
	p  *PIRTE
	ip *Installed
}

// PortWrite routes a plug-in write according to its PLC post. The link
// table is dense, indexed by the program's declared port index: the
// data plane pays one slice load, no map lookups.
func (h *host) PortWrite(index int, value int64) error {
	if index < 0 || index >= len(h.ip.links) {
		return fmt.Errorf("pirte: plug-in %s wrote to undeclared port index %d", h.ip.Name, index)
	}
	post := &h.ip.links[index]
	switch post.Kind {
	case core.LinkNone:
		return h.p.directWrite(h.ip, h.ip.indexToID[index], value)
	case core.LinkVirtual:
		return h.p.writeVirtual(post.Virtual, value)
	case core.LinkVirtualRemote:
		return h.p.writeTypeII(post.Virtual, post.Remote, value)
	case core.LinkPeer:
		return h.p.deliverToPort(post.Peer, value)
	}
	return fmt.Errorf("pirte: port %s has invalid link kind", h.ip.indexToID[index])
}

// SetTimer arms a cyclic timer feeding the dispatch queue.
func (h *host) SetTimer(id int, period sim.Duration) {
	if id < 0 || id >= len(h.ip.timers) {
		return
	}
	t := &h.ip.timers[id]
	if t.armed {
		h.p.eng.Cancel(t.ev)
	}
	if period <= 0 {
		t.armed = false
		return
	}
	t.armed = true
	t.period = period
	var fire func()
	fire = func() {
		if !t.armed {
			return
		}
		t.ev = h.p.eng.After(t.period, fire)
		h.p.enqueue(event{kind: 2, pl: h.ip, index: id})
	}
	t.ev = h.p.eng.After(period, fire)
}

// ClearTimer disarms a timer.
func (h *host) ClearTimer(id int) {
	if id < 0 || id >= len(h.ip.timers) {
		return
	}
	t := &h.ip.timers[id]
	if t.armed {
		h.p.eng.Cancel(t.ev)
		t.armed = false
	}
}

// Now implements vm.Host.
func (h *host) Now() sim.Time { return h.p.eng.Now() }

// Log implements vm.Host.
func (h *host) Log(msg string, v int64) {
	h.p.logf("plugin %s: %s (%d)", h.ip.Name, msg, v)
}

// directWrite handles writes to unlinked ("P0-") ports: the PIRTE
// communicates with them directly. On the ECM, ECC-routed ports forward
// to the external world; on ordinary plug-in SW-Cs they are wrapped as
// MsgExternal and relayed towards the ECM over the type I port.
func (p *PIRTE) directWrite(ip *Installed, id core.PluginPortID, value int64) error {
	if p.externalOut != nil && p.externalOut(ip.Name, id, value) {
		return nil
	}
	if _, hasECC := ip.Pkg.Context.ECC.RouteByPort(id); hasECC && p.typeIProvided >= 0 {
		msg := core.Message{
			Type:    core.MsgExternal,
			Plugin:  ip.Name,
			ECU:     p.cfg.ECU,
			SWC:     p.cfg.SWC,
			Seq:     p.nextSeq(),
			Payload: core.EncodePortValue(&p.muxBuf, id, value),
		}
		return p.sendTypeI(msg)
	}
	// Fast path for owned ports: latch the value in the routing entry.
	if r := p.route(id); r != nil && r.owner == ip {
		r.direct = value
		r.hasDirect = true
		return nil
	}
	return fmt.Errorf("pirte: direct write to unbound port %s", id)
}

// writeVirtual sends a value out through a type I or type III virtual
// port: monitors first, then format translation, then the SW-C port.
func (p *PIRTE) writeVirtual(vid core.VirtualPortID, value int64) error {
	vp, ok := p.virtByID[vid]
	if !ok {
		return fmt.Errorf("pirte: write to unknown virtual port %s", vid)
	}
	now := p.eng.Now()
	for _, m := range vp.mons {
		adjusted, ok := m.Check(value, now)
		if !ok {
			vp.Drops++
			return nil // dropped by fault protection, not an error for the plug-in
		}
		value = adjusted
	}
	data, err := encodeValueTo(&p.encBuf, vp.spec.Format, value)
	if err != nil {
		return err
	}
	vp.Writes++
	return p.writeOut(vp.spec.SWCPort, data)
}

// writeTypeII multiplexes a value onto a type II SW-C port, attaching the
// recipient plug-in port id.
func (p *PIRTE) writeTypeII(vid core.VirtualPortID, recipient core.PluginPortID, value int64) error {
	vp, ok := p.virtByID[vid]
	if !ok {
		return fmt.Errorf("pirte: write to unknown virtual port %s", vid)
	}
	vp.Writes++
	return p.writeOut(vp.spec.SWCPort, core.EncodePortValue(&p.muxBuf, recipient, value))
}

// deliverToPort queues a value for the plug-in owning the port id. The
// event carries the id, not the program's port index: a live upgrade
// may swap the owner's port layout between enqueue and dispatch, and
// the SW-C-scope id is the stable name across versions.
func (p *PIRTE) deliverToPort(id core.PluginPortID, value int64) error {
	r := p.route(id)
	if r == nil || r.owner == nil {
		return fmt.Errorf("pirte: delivery to unowned port %s", id)
	}
	p.enqueue(event{kind: 1, pl: r.owner, port: id, value: value})
	return nil
}

// DeliverToPlugin is the public direct-injection path, used by the ECM
// ("the ECM PIRTE writes or reads directly to/from the plug-in port") and
// by tests.
func (p *PIRTE) DeliverToPlugin(id core.PluginPortID, value int64) error {
	return p.deliverToPort(id, value)
}

// writeOut pushes bytes to a static SW-C port through the attached RTE.
func (p *PIRTE) writeOut(sid core.SWCPortID, data []byte) error {
	if p.writeSWC == nil {
		return fmt.Errorf("pirte: %s: no SW-C writer attached", p.cfg.SWC)
	}
	return p.writeSWC(sid, data)
}

// WriteSWCPort exposes the outbound SW-C path to the ECM layer, which
// distributes installation packages over its type I provided ports.
func (p *PIRTE) WriteSWCPort(sid core.SWCPortID, data []byte) error {
	if _, ok := p.swcPorts[sid]; !ok {
		return fmt.Errorf("pirte: %s: unknown SW-C port %s", p.cfg.SWC, sid)
	}
	return p.writeOut(sid, data)
}

// sendTypeI frames and sends a message on the type I provided port,
// encoding into the PIRTE's reusable frame buffer (the RTE copies on
// write, so the buffer is free again when writeOut returns).
func (p *PIRTE) sendTypeI(msg core.Message) error {
	if p.typeIProvided < 0 {
		return fmt.Errorf("pirte: %s has no type I provided port", p.cfg.SWC)
	}
	raw, err := msg.AppendBinary(p.frameBuf[:0])
	if err != nil {
		return err
	}
	p.frameBuf = raw[:0]
	return p.writeOut(p.typeIProvided, raw)
}

// OnSWCData is the entry point for data arriving on a static SW-C port;
// the plug-in SW-C's runnables call it from the RTE (see component.go).
func (p *PIRTE) OnSWCData(sid core.SWCPortID, data []byte) {
	spec, ok := p.swcPorts[sid]
	if !ok {
		p.logf("pirte %s: data on unknown SW-C port %s", p.cfg.SWC, sid)
		return
	}
	switch spec.Type {
	case core.TypeI:
		// Interned decode: the envelope's identifier strings resolve to
		// cached values, so steady-state type I traffic does not allocate.
		var msg core.Message
		if err := msg.UnmarshalBinaryInterned(data, &p.intern); err != nil {
			p.logf("pirte %s: bad type I frame on %s: %v", p.cfg.SWC, sid, err)
			return
		}
		p.handleTypeI(msg)
	case core.TypeII:
		id, value, err := core.DecodePortValue(data)
		if err != nil {
			p.logf("pirte %s: malformed type II payload: %v", p.cfg.SWC, err)
			return
		}
		if err := p.deliverToPort(id, value); err != nil {
			p.logf("pirte %s: type II delivery: %v", p.cfg.SWC, err)
		}
	case core.TypeIII:
		vp, ok := p.virtBySWC[sid]
		if !ok {
			p.logf("pirte %s: type III data on unmapped port %s", p.cfg.SWC, sid)
			return
		}
		value, err := decodeValue(vp.spec.Format, data)
		if err != nil {
			p.logf("pirte %s: %v", p.cfg.SWC, err)
			return
		}
		// Fan out over the precomputed subscriber list — the install-time
		// index replaces the per-arrival scan of every plug-in's links.
		delivered := false
		for i := range vp.subs {
			if err := p.deliverToPort(vp.subs[i].id, value); err == nil {
				delivered = true
			}
		}
		if !delivered {
			p.logf("pirte %s: type III data on %s had no subscriber", p.cfg.SWC, sid)
		}
	}
}

// handleTypeI executes the type I message protocol (paper section 3.1.3):
// relayed external payloads here, life-cycle frames through Lifecycle.
// The ECM hook may consume messages first (acks travelling towards the
// server, outbound external messages).
func (p *PIRTE) handleTypeI(msg core.Message) {
	if p.typeIHook != nil && p.typeIHook(msg) {
		return
	}
	if msg.Type != core.MsgExternal {
		p.Lifecycle(msg, nil, p.reply)
		return
	}
	id, value, err := core.DecodePortValue(msg.Payload)
	if err != nil {
		p.logf("pirte %s: bad external payload: %v", p.cfg.SWC, err)
		return
	}
	if err := p.deliverToPort(id, value); err != nil {
		p.logf("pirte %s: external delivery: %v", p.cfg.SWC, err)
	}
}

// FramePackage decodes the installation package an install or upgrade
// frame carries; other frames carry none (nil, nil).
func FramePackage(msg core.Message) (*plugin.Package, error) {
	if msg.Type != core.MsgInstall && msg.Type != core.MsgUpgrade {
		return nil, nil
	}
	pkg := new(plugin.Package)
	if err := pkg.UnmarshalBinary(msg.Payload); err != nil {
		return nil, fmt.Errorf("bad package: %v", err)
	}
	return pkg, nil
}

// Lifecycle is the life-cycle executor: it runs one install, uninstall,
// upgrade, stop or start frame and sends that frame's one ack or nack
// through reply. pkg is the frame's decoded package; nil decodes it with
// FramePackage. An upgrade replies once its transaction settles: an ack
// on commit, a "rollback: "-prefixed nack on rollback. The PIRTE runs it
// for frames arriving on its type I port with reply towards the ECM; the
// ECM runs it for frames addressed to its own SW-C with reply towards the
// server.
func (p *PIRTE) Lifecycle(msg core.Message, pkg *plugin.Package, reply func(core.Message)) {
	done := func(err error) {
		if err != nil {
			reply(msg.Nack(err.Error()))
			return
		}
		reply(msg.Ack())
	}
	if pkg == nil {
		var err error
		if pkg, err = FramePackage(msg); err != nil {
			done(err)
			return
		}
	}
	if pkg != nil && pkg.Binary.Manifest.Name != msg.Plugin {
		done(fmt.Errorf("pirte: package names plug-in %s, frame targets %s", pkg.Binary.Manifest.Name, msg.Plugin))
		return
	}
	switch msg.Type {
	case core.MsgInstall:
		done(p.Install(*pkg))
	case core.MsgUpgrade:
		if err := p.Upgrade(msg.Plugin, *pkg, done); err != nil {
			done(err)
		}
	case core.MsgUninstall:
		done(p.Uninstall(msg.Plugin))
	case core.MsgStop:
		done(p.Stop(msg.Plugin))
	case core.MsgStart:
		done(p.Start(msg.Plugin))
	default:
		p.logf("pirte %s: unexpected %v for %s", p.cfg.SWC, msg.Type, msg.Plugin)
	}
}

// reply sends an ack/nack back towards the ECM on the type I provided
// port; standalone PIRTEs log instead.
func (p *PIRTE) reply(msg core.Message) {
	if p.typeIProvided < 0 || p.writeSWC == nil {
		p.logf("pirte %s: %v %s (no type I path)", p.cfg.SWC, msg.Type, msg.Plugin)
		return
	}
	if err := p.sendTypeI(msg); err != nil {
		p.logf("pirte %s: reply failed: %v", p.cfg.SWC, err)
	}
}
