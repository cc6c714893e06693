// Package ecm implements the External Communication Manager SW-C (paper
// section 3.1.1): a plug-in SW-C — it embeds a full PIRTE — extended with
// the communication module that talks to the outside world. The ECM is
// the vehicle's single gateway: it dials the pre-defined trusted server,
// receives installation packages and life cycle commands (install,
// uninstall, stop, start, and the live-upgrade hot-swap) and distributes
// them to the target plug-in SW-Cs over type I ports, collects and
// forwards acknowledgements, extracts External Connection Contexts,
// opens links to external endpoints (the paper's smart phone) and routes
// their messages into the vehicle. During a live upgrade the ECM swaps
// the plug-in's ECC routing to the new version's atomically with the
// swap and restores the old routing when a rollback nack passes back
// through.
package ecm

import (
	"fmt"
	"io"
	"sync"

	"dynautosar/internal/core"
	"dynautosar/internal/pirte"
	"dynautosar/internal/plugin"
	"dynautosar/internal/sim"
)

// Dialer opens a connection to an external endpoint ("111.22.33.44:56789"
// in the paper's ECC). Tests and the FES simulator provide in-memory
// implementations; cmd/vehicle uses net.Dial.
type Dialer interface {
	Dial(endpoint string) (io.ReadWriteCloser, error)
}

// DialerFunc adapts a function to the Dialer interface.
type DialerFunc func(endpoint string) (io.ReadWriteCloser, error)

// Dial implements Dialer.
func (f DialerFunc) Dial(endpoint string) (io.ReadWriteCloser, error) { return f(endpoint) }

type routeKey struct {
	ecu core.ECUID
	swc core.SWCID
}

type eccRecord struct {
	plugin  core.PluginName
	ecu     core.ECUID
	entries core.ECC
}

// ECM is the external communication manager. It inherits the full plug-in
// SW-C behaviour from the embedded PIRTE; plug-ins (like the paper's COM)
// install into the ECM SW-C itself.
type ECM struct {
	*pirte.PIRTE
	eng *sim.Engine

	// routes maps remote plug-in SW-Cs to the type I provided SW-C port
	// that reaches them.
	routes map[routeKey]core.SWCPortID

	// eccReg is the registry of extracted External Connection Contexts.
	eccReg []eccRecord
	// eccSwaps stashes, per in-flight plug-in upgrade, the ECC records
	// the upgrade replaced, so a failure nack restores the old routing.
	// Keyed by plugin|ecu and bound to the staging request's sequence
	// number: only the staged request's own ack/nack resolves the stash
	// — a rejected duplicate or compensation frame (different seq) must
	// not destroy an in-flight upgrade's stash.
	eccSwaps map[string]eccSwapStash

	mu         sync.Mutex
	serverConn io.ReadWriteCloser
	// serverClosed, when set, runs on the read loop's goroutine after
	// the trusted-server link dies; the vehicle process uses it to
	// schedule a reconnect (with backoff — see core.Backoff).
	serverClosed func()
	dialer       Dialer
	endpoints    map[string]io.ReadWriteCloser

	// frameBuf is the reusable type I frame encoder of the distribution
	// and external-relay paths; both run on the simulation goroutine and
	// the RTE copies on write, so one scratch buffer suffices.
	frameBuf []byte

	logf func(format string, args ...any)

	// Stats.
	Distributed   uint64
	AcksForwarded uint64
	ExternalIn    uint64
	ExternalOut   uint64
}

// New wraps a PIRTE (configured for the ECM SW-C) into an ECM.
func New(eng *sim.Engine, p *pirte.PIRTE) *ECM {
	e := &ECM{
		PIRTE:     p,
		eng:       eng,
		routes:    make(map[routeKey]core.SWCPortID),
		endpoints: make(map[string]io.ReadWriteCloser),
		eccSwaps:  make(map[string]eccSwapStash),
		logf:      func(string, ...any) {},
	}
	p.SetTypeIHook(e.onTypeI)
	p.SetExternalOut(e.onLocalExternal)
	return e
}

// SetLogger routes ECM diagnostics.
func (e *ECM) SetLogger(fn func(format string, args ...any)) {
	if fn != nil {
		e.logf = fn
		e.PIRTE.SetLogger(fn)
	}
}

// SetDialer installs the endpoint dialer.
func (e *ECM) SetDialer(d Dialer) { e.dialer = d }

// SetServerCloseHandler registers fn to run when the trusted-server
// link dies (read error or remote close). It fires once per
// ConnectServer'd link, on the read loop's goroutine — the handler must
// not block the caller's simulation; dial work belongs on its own
// goroutine.
func (e *ECM) SetServerCloseHandler(fn func()) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.serverClosed = fn
}

// AddRoute declares that the plug-in SW-C swc on ecu is reached through
// the given type I provided SW-C port of the ECM.
func (e *ECM) AddRoute(ecu core.ECUID, swc core.SWCID, via core.SWCPortID) {
	e.routes[routeKey{ecu, swc}] = via
}

// --- server link -------------------------------------------------------------

// ConnectServer attaches the dial-out server connection: the ECM sends a
// hello identifying the vehicle and serves inbound messages until the
// connection closes. The read loop runs on its own goroutine and injects
// work into the simulation engine — the single point where real time
// crosses into simulated time.
func (e *ECM) ConnectServer(conn io.ReadWriteCloser, vehicle core.VehicleID) error {
	e.mu.Lock()
	e.serverConn = conn
	e.mu.Unlock()
	hello := core.Message{Type: core.MsgHello, ECU: e.Config().ECU, Payload: []byte(vehicle)}
	if err := e.writeServer(hello); err != nil {
		return err
	}
	go e.serveServer(conn)
	return nil
}

func (e *ECM) serveServer(conn io.ReadWriteCloser) {
	for {
		msg, err := core.ReadMessage(conn)
		if err != nil {
			e.mu.Lock()
			fn := e.serverClosed
			// Only the current link's death counts: a reconnect may
			// already have replaced serverConn, and the stale loop's
			// exit must not trigger another redial.
			stale := e.serverConn != conn
			e.mu.Unlock()
			if fn != nil && !stale {
				fn()
			}
			return
		}
		e.eng.Inject(func() { e.HandleServerMessage(msg) })
	}
}

// writeServer sends a message up to the trusted server.
func (e *ECM) writeServer(msg core.Message) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.serverConn == nil {
		return fmt.Errorf("ecm: no server connection")
	}
	return core.WriteMessage(e.serverConn, msg)
}

// HandleServerMessage processes one message from the trusted server at
// simulation time: installation packages and life cycle commands are
// installed locally or distributed over type I ports; external payloads
// are routed like endpoint traffic.
func (e *ECM) HandleServerMessage(msg core.Message) {
	cfg := e.Config()
	switch msg.Type {
	case core.MsgInstall:
		// Extract the ECC before anything else (paper section 3.1.2).
		var pkg plugin.Package
		if err := pkg.UnmarshalBinary(msg.Payload); err != nil {
			e.replyServer(msg.Nack(fmt.Sprintf("bad package: %v", err)))
			return
		}
		if len(pkg.Context.ECC) > 0 {
			e.eccReg = append(e.eccReg, eccRecord{
				plugin:  pkg.Binary.Manifest.Name,
				ecu:     msg.ECU,
				entries: pkg.Context.ECC,
			})
			// Open the links to the external resources named by the ECC.
			for _, ep := range pkg.Context.ECC.Endpoints() {
				if err := e.connectEndpoint(ep); err != nil {
					e.logf("ecm: endpoint %s unreachable: %v", ep, err)
				}
			}
		}
		if msg.ECU == cfg.ECU && msg.SWC == cfg.SWC {
			// Destined to a plug-in in the ECM SW-C itself.
			if err := e.Install(pkg); err != nil {
				e.replyServer(msg.Nack(err.Error()))
				return
			}
			e.replyServer(msg.Ack())
			return
		}
		e.distribute(msg)
	case core.MsgUpgrade:
		var pkg plugin.Package
		if err := pkg.UnmarshalBinary(msg.Payload); err != nil {
			e.replyServer(msg.Nack(fmt.Sprintf("bad package: %v", err)))
			return
		}
		if pkg.Binary.Manifest.Name != msg.Plugin {
			// Must be caught before the ECC swap is staged: the stash
			// and its cleanup paths are keyed by msg.Plugin, so a
			// mismatched manifest would leave a phantom ECC record no
			// rollback or uninstall could remove.
			e.replyServer(msg.Nack(fmt.Sprintf("package names plug-in %s, message targets %s",
				pkg.Binary.Manifest.Name, msg.Plugin)))
			return
		}
		// Swap the plug-in's ECC routing to the new version's, stashing
		// the old records: a rollback nack restores them when it passes
		// back through replyServer.
		e.stageECCSwap(msg, pkg)
		if msg.ECU == cfg.ECU && msg.SWC == cfg.SWC {
			req := msg
			if err := e.Upgrade(msg.Plugin, pkg, func(err error) {
				if err != nil {
					e.replyServer(req.Nack(err.Error()))
					return
				}
				e.replyServer(req.Ack())
			}); err != nil {
				e.replyServer(msg.Nack(err.Error()))
			}
			return
		}
		e.distribute(msg)
	case core.MsgUninstall, core.MsgStop, core.MsgStart:
		if msg.ECU == cfg.ECU && msg.SWC == cfg.SWC {
			var err error
			switch msg.Type {
			case core.MsgUninstall:
				err = e.Uninstall(msg.Plugin)
				e.dropECC(msg.Plugin)
			case core.MsgStop:
				err = e.Stop(msg.Plugin)
			default:
				err = e.Start(msg.Plugin)
			}
			if err != nil {
				e.replyServer(msg.Nack(err.Error()))
				return
			}
			e.replyServer(msg.Ack())
			return
		}
		if msg.Type == core.MsgUninstall {
			e.dropECC(msg.Plugin)
		}
		e.distribute(msg)
	case core.MsgExternal:
		// Server-relayed external traffic (federated embedded systems).
		port, value, err := core.DecodePortValue(msg.Payload)
		if err != nil {
			e.logf("ecm: bad server external payload: %v", err)
			return
		}
		e.routeInbound(msg.ECU, port, value)
	default:
		e.logf("ecm: unexpected server message %v", msg.Type)
	}
}

// replyServer forwards an ack/nack to the server, counting it; an
// ack/nack settling an upgrade's ECC swap resolves the stash first.
func (e *ECM) replyServer(msg core.Message) {
	if msg.Type == core.MsgAck || msg.Type == core.MsgNack {
		e.resolveECCSwap(msg, msg.Type == core.MsgNack)
	}
	if err := e.writeServer(msg); err != nil {
		e.logf("ecm: server reply failed: %v", err)
		return
	}
	if msg.Type == core.MsgAck || msg.Type == core.MsgNack {
		e.AcksForwarded++
	}
}

// eccSwapStash is the pre-upgrade ECC state of one staged swap, bound
// to the request that staged it.
type eccSwapStash struct {
	seq uint32
	old []eccRecord
}

// eccSwapKey identifies one plug-in upgrade's ECC swap.
func eccSwapKey(plugin core.PluginName, ecu core.ECUID) string {
	return string(plugin) + "|" + string(ecu)
}

// stageECCSwap replaces a plug-in's ECC records with the upgrade
// package's and stashes the old ones for a possible restore. Links to
// endpoints the new ECC names are opened eagerly, like on install. A
// second upgrade frame while one swap is staged (the PIRTE rejects it)
// keeps the first stash untouched — its nack carries a different seq
// and therefore cannot resolve the staged swap.
func (e *ECM) stageECCSwap(msg core.Message, pkg plugin.Package) {
	key := eccSwapKey(msg.Plugin, msg.ECU)
	if _, dup := e.eccSwaps[key]; dup {
		return
	}
	var old []eccRecord
	kept := e.eccReg[:0]
	for _, rec := range e.eccReg {
		if rec.plugin == msg.Plugin && rec.ecu == msg.ECU {
			old = append(old, rec)
			continue
		}
		kept = append(kept, rec)
	}
	e.eccReg = kept
	e.eccSwaps[key] = eccSwapStash{seq: msg.Seq, old: old}
	if len(pkg.Context.ECC) > 0 {
		// Registered under msg.Plugin — the key every cleanup path
		// (resolveECCSwap, dropECC) filters by; the caller verified it
		// matches the package manifest.
		e.eccReg = append(e.eccReg, eccRecord{
			plugin:  msg.Plugin,
			ecu:     msg.ECU,
			entries: pkg.Context.ECC,
		})
		for _, ep := range pkg.Context.ECC.Endpoints() {
			if err := e.connectEndpoint(ep); err != nil {
				e.logf("ecm: endpoint %s unreachable: %v", ep, err)
			}
		}
	}
}

// resolveECCSwap closes a staged ECC swap when the staging request's
// own ack or nack passes through (matched by sequence number): any
// failure puts the old version's records back — the swap was staged
// eagerly, so a rejection that never reached the probe must restore
// too — and a commit drops the stash. Acks and nacks of other frames
// for the same plug-in (rejected duplicates, compensation downgrades)
// carry different sequence numbers and leave the stash alone.
func (e *ECM) resolveECCSwap(msg core.Message, failed bool) {
	key := eccSwapKey(msg.Plugin, msg.ECU)
	stash, ok := e.eccSwaps[key]
	if !ok || stash.seq != msg.Seq {
		return
	}
	delete(e.eccSwaps, key)
	if !failed {
		return
	}
	kept := e.eccReg[:0]
	for _, rec := range e.eccReg {
		if rec.plugin == msg.Plugin && rec.ecu == msg.ECU {
			continue
		}
		kept = append(kept, rec)
	}
	e.eccReg = append(kept, stash.old...)
}

// distribute relays a message to the target plug-in SW-C through the
// routed type I port.
func (e *ECM) distribute(msg core.Message) {
	via, ok := e.routes[routeKey{msg.ECU, msg.SWC}]
	if !ok {
		e.replyServer(msg.Nack(fmt.Sprintf("no route to %s/%s", msg.ECU, msg.SWC)))
		return
	}
	raw, err := msg.AppendBinary(e.frameBuf[:0])
	if err != nil {
		e.replyServer(msg.Nack(err.Error()))
		return
	}
	e.frameBuf = raw[:0]
	if err := e.WriteSWCPort(via, raw); err != nil {
		e.replyServer(msg.Nack(fmt.Sprintf("distribution failed: %v", err)))
		return
	}
	e.Distributed++
}

// dropECC removes the registry records of an uninstalled plug-in.
func (e *ECM) dropECC(name core.PluginName) {
	kept := e.eccReg[:0]
	for _, rec := range e.eccReg {
		if rec.plugin != name {
			kept = append(kept, rec)
		}
	}
	e.eccReg = kept
}

// --- type I interception ------------------------------------------------------

// onTypeI intercepts inbound type I messages of the embedded PIRTE:
// acknowledgements travelling to the server and outbound external
// messages from remote plug-ins.
func (e *ECM) onTypeI(msg core.Message) bool {
	switch msg.Type {
	case core.MsgAck, core.MsgNack:
		e.replyServer(msg)
		return true
	case core.MsgExternal:
		port, value, err := core.DecodePortValue(msg.Payload)
		if err != nil {
			e.logf("ecm: bad relayed external payload: %v", err)
			return true
		}
		if rec, entry, ok := e.lookupByPort(msg.ECU, port); ok {
			e.sendEndpoint(entry.Endpoint, entry.MessageID, value)
			_ = rec
			return true
		}
		e.logf("ecm: no ECC for outbound %s:%s", msg.ECU, port)
		return true
	}
	return false
}

// onLocalExternal handles ECC-routed writes of plug-ins installed in the
// ECM SW-C itself.
func (e *ECM) onLocalExternal(name core.PluginName, port core.PluginPortID, value int64) bool {
	if _, entry, ok := e.lookupByPort(e.Config().ECU, port); ok {
		e.sendEndpoint(entry.Endpoint, entry.MessageID, value)
		return true
	}
	return false
}

// lookupByPort finds the ECC entry for a plug-in port on an ECU.
func (e *ECM) lookupByPort(ecu core.ECUID, port core.PluginPortID) (eccRecord, core.ECCEntry, bool) {
	for _, rec := range e.eccReg {
		if rec.ecu != ecu {
			continue
		}
		if entry, ok := rec.entries.RouteByPort(port); ok {
			return rec, entry, true
		}
	}
	return eccRecord{}, core.ECCEntry{}, false
}

// lookupByMessage finds the ECC entry for an inbound message id.
func (e *ECM) lookupByMessage(messageID string) (core.ECCEntry, bool) {
	for _, rec := range e.eccReg {
		if entry, ok := rec.entries.Route(messageID); ok {
			return entry, true
		}
	}
	return core.ECCEntry{}, false
}

// --- endpoints ----------------------------------------------------------------

// connectEndpoint dials the endpoint once and starts its read loop.
func (e *ECM) connectEndpoint(endpoint string) error {
	e.mu.Lock()
	if _, ok := e.endpoints[endpoint]; ok {
		e.mu.Unlock()
		return nil
	}
	e.mu.Unlock()
	if e.dialer == nil {
		return fmt.Errorf("ecm: no dialer configured")
	}
	conn, err := e.dialer.Dial(endpoint)
	if err != nil {
		return err
	}
	e.mu.Lock()
	e.endpoints[endpoint] = conn
	e.mu.Unlock()
	go e.serveEndpoint(endpoint, conn)
	return nil
}

func (e *ECM) serveEndpoint(endpoint string, conn io.ReadWriteCloser) {
	for {
		msgID, value, err := ReadExtFrame(conn)
		if err != nil {
			return
		}
		e.eng.Inject(func() { e.HandleEndpointFrame(endpoint, msgID, value) })
	}
}

// HandleEndpointFrame routes one message arriving from an external
// endpoint: the ECC names the recipient ECU and plug-in port (paper
// section 4: 'Wheels' -> P0, 'Speed' -> P1).
func (e *ECM) HandleEndpointFrame(endpoint, messageID string, value int64) {
	entry, ok := e.lookupByMessage(messageID)
	if !ok {
		e.logf("ecm: no ECC route for message %q from %s", messageID, endpoint)
		return
	}
	e.ExternalIn++
	e.routeInbound(entry.ECU, entry.Port, value)
}

// routeInbound delivers an external value to its in-vehicle destination:
// directly when the plug-in lives in the ECM SW-C, wrapped as MsgExternal
// over the type I port otherwise.
func (e *ECM) routeInbound(ecu core.ECUID, port core.PluginPortID, value int64) {
	cfg := e.Config()
	if ecu == cfg.ECU {
		if err := e.DeliverToPlugin(port, value); err != nil {
			e.logf("ecm: local external delivery: %v", err)
		}
		return
	}
	// Find the SW-C on that ECU through the route table.
	for key, via := range e.routes {
		if key.ecu != ecu {
			continue
		}
		var payload [core.PortValueLen]byte
		msg := core.Message{
			Type:    core.MsgExternal,
			ECU:     ecu,
			SWC:     key.swc,
			Payload: core.EncodePortValue(&payload, port, value),
		}
		raw, err := msg.AppendBinary(e.frameBuf[:0])
		if err != nil {
			e.logf("ecm: %v", err)
			return
		}
		e.frameBuf = raw[:0]
		if err := e.WriteSWCPort(via, raw); err != nil {
			e.logf("ecm: external forward failed: %v", err)
		}
		return
	}
	e.logf("ecm: no route to ECU %s for external message", ecu)
}

// sendEndpoint writes a frame to an external endpoint, dialling it on
// demand.
func (e *ECM) sendEndpoint(endpoint, messageID string, value int64) {
	if err := e.connectEndpoint(endpoint); err != nil {
		e.logf("ecm: cannot reach %s: %v", endpoint, err)
		return
	}
	e.mu.Lock()
	conn := e.endpoints[endpoint]
	e.mu.Unlock()
	if err := WriteExtFrame(conn, messageID, value); err != nil {
		e.logf("ecm: endpoint write failed: %v", err)
		return
	}
	e.ExternalOut++
}

// Close shuts the server and endpoint connections.
func (e *ECM) Close() {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.serverConn != nil {
		e.serverConn.Close()
		e.serverConn = nil
	}
	for _, c := range e.endpoints {
		c.Close()
	}
	e.endpoints = make(map[string]io.ReadWriteCloser)
}
