// Package ecm implements the External Communication Manager SW-C (paper
// section 3.1.1): a plug-in SW-C — it embeds a full PIRTE — extended with
// the communication module that talks to the outside world. The ECM is
// the vehicle's single gateway: it dials the pre-defined trusted server,
// receives installation packages and life cycle commands (install,
// uninstall, stop, start, and the live-upgrade hot-swap) and distributes
// them to the target plug-in SW-Cs over type I ports, collects and
// forwards acknowledgements, extracts External Connection Contexts,
// opens links to external endpoints (the paper's smart phone) and routes
// their messages into the vehicle. Every ECC change an install, upgrade
// or uninstall frame makes is staged when the frame passes and resolved
// by that frame's own ack (kept) or nack (undone); an install's ECC
// comes into force only with its ack.
package ecm

import (
	"fmt"
	"io"
	"sync"

	"dynautosar/internal/core"
	"dynautosar/internal/pirte"
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

// eccKey names the ECC records of one plug-in on one ECU.
type eccKey struct {
	plugin core.PluginName
	ecu    core.ECUID
}

type eccRecord struct {
	eccKey
	entries core.ECC
}

// eccStage is one staged ECC change: the seq of the frame that staged
// it, the ECC it replaced (nil: none) and the one it puts in force. An
// install's ECC is held until the install's ack: before that no plug-in
// owns the ports it routes to.
type eccStage struct {
	seq      uint32
	old, ecc core.ECC
	held     bool
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
	// eccStages holds the unresolved ECC changes per (plug-in, ECU),
	// oldest first (see stageECC).
	eccStages map[eccKey][]eccStage

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
		eccStages: make(map[eccKey][]eccStage),
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
// simulation time: life-cycle frames stage their ECC change and run in
// the ECM SW-C itself or are distributed over type I ports; external
// payloads are routed like endpoint traffic.
func (e *ECM) HandleServerMessage(msg core.Message) {
	switch msg.Type {
	case core.MsgInstall, core.MsgUpgrade, core.MsgUninstall, core.MsgStop, core.MsgStart:
		// Extract the ECC before anything else (paper section 3.1.2).
		pkg, err := pirte.FramePackage(msg)
		if err != nil {
			e.replyServer(msg.Nack(err.Error()))
			return
		}
		if pkg != nil {
			e.stageECC(msg, pkg.Context.ECC)
		} else if msg.Type == core.MsgUninstall {
			e.stageECC(msg, nil)
		}
		if cfg := e.Config(); msg.ECU == cfg.ECU && msg.SWC == cfg.SWC {
			e.Lifecycle(msg, pkg, e.replyServer)
			return
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

// replyServer forwards an ack/nack to the server, counting it; the
// frame's staged ECC change is resolved first.
func (e *ECM) replyServer(msg core.Message) {
	if msg.Type == core.MsgAck || msg.Type == core.MsgNack {
		e.resolveECC(msg)
	}
	if err := e.writeServer(msg); err != nil {
		e.logf("ecm: server reply failed: %v", err)
		return
	}
	if msg.Type == core.MsgAck || msg.Type == core.MsgNack {
		e.AcksForwarded++
	}
}

// stageECC stages a life-cycle frame's ECC change for its (plug-in,
// ECU) under the frame's seq — the package's ECC for an install or
// upgrade, none for an uninstall — and puts it in force at once, except
// an install's, which its ack puts in force; links to the endpoints the
// new ECC names are opened eagerly. Changes stack: a frame staged while
// an earlier one of the same plug-in is unresolved (a rejected duplicate
// upgrade, an uninstall refused mid-upgrade) replaces the earlier one's
// ECC, and its nack puts that ECC back.
func (e *ECM) stageECC(msg core.Message, ecc core.ECC) {
	key := eccKey{msg.Plugin, msg.ECU}
	st := eccStage{seq: msg.Seq, old: e.eccOf(key), ecc: ecc, held: msg.Type == core.MsgInstall}
	if !st.held {
		e.setECC(key, ecc)
	}
	e.eccStages[key] = append(e.eccStages[key], st)
	for _, ep := range ecc.Endpoints() {
		if err := e.connectEndpoint(ep); err != nil {
			e.logf("ecm: endpoint %s unreachable: %v", ep, err)
		}
	}
}

// resolveECC settles the change a frame staged when the frame's own ack
// or nack passes (matched by seq; replies of other frames leave it
// alone). An ack keeps the change, a nack undoes it: the outcome is in
// force (a held install ECC is put in force, a replaced one restored)
// or, when a later frame staged over this one, becomes what that
// frame's nack would restore.
func (e *ECM) resolveECC(msg core.Message) {
	key := eccKey{msg.Plugin, msg.ECU}
	stages := e.eccStages[key]
	for i, st := range stages {
		if st.seq != msg.Seq {
			continue
		}
		acked, outcome := msg.Type == core.MsgAck, st.old
		if acked {
			outcome = st.ecc
		}
		// The last stage's outcome is already in force, except after the
		// ack of a held ECC or the nack of one put in force at once.
		if i < len(stages)-1 {
			stages[i+1].old = outcome
		} else if acked == st.held {
			e.setECC(key, outcome)
		}
		if stages = append(stages[:i], stages[i+1:]...); len(stages) == 0 {
			delete(e.eccStages, key)
		} else {
			e.eccStages[key] = stages
		}
		return
	}
}

// eccOf returns the ECC in force for key.
func (e *ECM) eccOf(key eccKey) core.ECC {
	for _, rec := range e.eccReg {
		if rec.eccKey == key {
			return rec.entries
		}
	}
	return nil
}

// setECC replaces the registry record of key with ecc (none when empty).
func (e *ECM) setECC(key eccKey, ecc core.ECC) {
	kept := e.eccReg[:0]
	for _, rec := range e.eccReg {
		if rec.eccKey != key {
			kept = append(kept, rec)
		}
	}
	e.eccReg = kept
	if len(ecc) > 0 {
		e.eccReg = append(e.eccReg, eccRecord{key, ecc})
	}
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
		if _, entry, ok := e.lookupByPort(msg.ECU, port); ok {
			e.sendEndpoint(entry.Endpoint, entry.MessageID, value)
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
