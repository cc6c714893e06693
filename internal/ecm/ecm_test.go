package ecm

import (
	"bytes"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"dynautosar/internal/core"
	"dynautosar/internal/pirte"
	"dynautosar/internal/plugin"
	"dynautosar/internal/sim"
	"dynautosar/internal/vm"
)

// captureConn is an in-memory server/endpoint connection that records
// written frames; reads report EOF so read loops exit immediately.
type captureConn struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (c *captureConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.buf.Write(p)
}
func (c *captureConn) Read(p []byte) (int, error) { return 0, io.EOF }
func (c *captureConn) Close() error               { return nil }

// messages decodes all core.Message frames written so far.
func (c *captureConn) messages(t *testing.T) []core.Message {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	r := bytes.NewReader(c.buf.Bytes())
	var out []core.Message
	for r.Len() > 0 {
		m, err := core.ReadMessage(r)
		if err != nil {
			t.Fatalf("decoding server stream: %v", err)
		}
		out = append(out, m)
	}
	return out
}

// extFrames decodes endpoint frames written so far.
func (c *captureConn) extFrames(t *testing.T) []struct {
	ID    string
	Value int64
} {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	r := bytes.NewReader(c.buf.Bytes())
	var out []struct {
		ID    string
		Value int64
	}
	for r.Len() > 0 {
		id, v, err := ReadExtFrame(r)
		if err != nil {
			t.Fatalf("decoding endpoint stream: %v", err)
		}
		out = append(out, struct {
			ID    string
			Value int64
		}{id, v})
	}
	return out
}

// ecmConfig is the ECM SW-C of the paper's example (SW-C1 on ECU1): type
// II pair behind V0, type I pair toward SW-C2.
func ecmConfig() pirte.Config {
	return pirte.Config{
		ECU: "ECU1",
		SWC: "SW-C1",
		SWCPorts: []core.SWCPortSpec{
			{ID: 0, Type: core.TypeII, Direction: core.Provided},
			{ID: 1, Type: core.TypeII, Direction: core.Required},
			{ID: 2, Type: core.TypeI, Direction: core.Provided},
			{ID: 3, Type: core.TypeI, Direction: core.Required},
		},
		VirtualPorts: []core.VirtualPortSpec{
			{ID: 0, SWCPort: 0, Type: core.TypeII, Direction: core.Provided, Name: "MuxOut"},
			{ID: 1, SWCPort: 1, Type: core.TypeII, Direction: core.Required, Name: "MuxIn"},
		},
	}
}

// comSrc is the paper's COM plug-in: external ports P0/P1 fed by the
// phone, P2/P3 forwarding through the type II mux to OP's P0/P1.
const comSrc = `
.plugin COM 1.0
.port WheelsExt required
.port SpeedExt required
.port WheelsFwd provided
.port SpeedFwd provided
on_message WheelsExt:
	ARG
	PWR WheelsFwd
	RET
on_message SpeedExt:
	ARG
	PWR SpeedFwd
	RET
`

// comContext is the paper's COM context: PLC {P0-, P1-, P2-V0.P0,
// P3-V0.P1} and the 'Wheels'/'Speed' ECC.
func comContext() core.Context {
	return core.Context{
		PIC: core.PIC{
			{Name: "WheelsExt", ID: 0},
			{Name: "SpeedExt", ID: 1},
			{Name: "WheelsFwd", ID: 2},
			{Name: "SpeedFwd", ID: 3},
		},
		PLC: core.PLC{
			{Kind: core.LinkNone, Plugin: 0},
			{Kind: core.LinkNone, Plugin: 1},
			{Kind: core.LinkVirtualRemote, Plugin: 2, Virtual: 0, Remote: 0},
			{Kind: core.LinkVirtualRemote, Plugin: 3, Virtual: 0, Remote: 1},
		},
		ECC: core.ECC{
			{Endpoint: "111.22.33.44:56789", ECU: "ECU1", MessageID: "Wheels", Port: 0},
			{Endpoint: "111.22.33.44:56789", ECU: "ECU1", MessageID: "Speed", Port: 1},
		},
	}
}

func comPackage(t *testing.T) plugin.Package {
	t.Helper()
	prog, err := vm.Assemble(comSrc)
	if err != nil {
		t.Fatal(err)
	}
	bin, err := plugin.FromProgram(prog, plugin.Manifest{Developer: "sics", External: true})
	if err != nil {
		t.Fatal(err)
	}
	pkg := plugin.Package{Binary: bin, Context: comContext()}
	if err := pkg.Validate(); err != nil {
		t.Fatal(err)
	}
	return pkg
}

// newECM builds a standalone ECM with captured SW-C writes, a capture
// server connection and an in-memory endpoint dialer.
func newECM(t *testing.T) (*ECM, map[core.SWCPortID][][]byte, *captureConn, *captureConn) {
	t.Helper()
	eng := sim.NewEngine()
	p, err := pirte.New(eng, ecmConfig())
	if err != nil {
		t.Fatal(err)
	}
	captured := make(map[core.SWCPortID][][]byte)
	p.SetSWCWriter(func(sid core.SWCPortID, data []byte) error {
		captured[sid] = append(captured[sid], append([]byte(nil), data...))
		return nil
	})
	e := New(eng, p)
	server := &captureConn{}
	endpoint := &captureConn{}
	e.SetDialer(DialerFunc(func(ep string) (io.ReadWriteCloser, error) {
		return endpoint, nil
	}))
	if err := e.ConnectServer(server, "VIN123"); err != nil {
		t.Fatal(err)
	}
	return e, captured, server, endpoint
}

func installMsg(t *testing.T, pkg plugin.Package, ecu core.ECUID, swc core.SWCID, seq uint32) core.Message {
	t.Helper()
	raw, err := pkg.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	return core.Message{Type: core.MsgInstall, Plugin: pkg.Binary.Manifest.Name,
		ECU: ecu, SWC: swc, Seq: seq, Payload: raw}
}

func TestHelloSentOnConnect(t *testing.T) {
	_, _, server, _ := newECM(t)
	msgs := server.messages(t)
	if len(msgs) != 1 || msgs[0].Type != core.MsgHello || string(msgs[0].Payload) != "VIN123" {
		t.Fatalf("hello = %+v", msgs)
	}
}

func TestLocalInstallAcksAndRegistersECC(t *testing.T) {
	e, _, server, _ := newECM(t)
	e.HandleServerMessage(installMsg(t, comPackage(t), "ECU1", "SW-C1", 5))
	if _, ok := e.Plugin("COM"); !ok {
		t.Fatal("COM not installed locally")
	}
	msgs := server.messages(t)
	last := msgs[len(msgs)-1]
	if last.Type != core.MsgAck || last.Seq != 5 || last.Plugin != "COM" {
		t.Fatalf("ack = %+v", last)
	}
	if e.AcksForwarded != 1 {
		t.Fatalf("AcksForwarded = %d", e.AcksForwarded)
	}
}

func TestRemoteInstallDistributesOverTypeI(t *testing.T) {
	e, captured, _, _ := newECM(t)
	e.AddRoute("ECU2", "SW-C2", 2)
	pkg := comPackage(t)
	e.HandleServerMessage(installMsg(t, pkg, "ECU2", "SW-C2", 6))
	frames := captured[2]
	if len(frames) != 1 {
		t.Fatalf("type I distributions = %d", len(frames))
	}
	var fwd core.Message
	if err := fwd.UnmarshalBinary(frames[0]); err != nil {
		t.Fatal(err)
	}
	if fwd.Type != core.MsgInstall || fwd.ECU != "ECU2" || fwd.SWC != "SW-C2" || fwd.Seq != 6 {
		t.Fatalf("forwarded = %+v", fwd)
	}
	if e.Distributed != 1 {
		t.Fatalf("Distributed = %d", e.Distributed)
	}
}

func TestNoRouteNacks(t *testing.T) {
	e, _, server, _ := newECM(t)
	e.HandleServerMessage(installMsg(t, comPackage(t), "ECU9", "SW-C9", 7))
	msgs := server.messages(t)
	last := msgs[len(msgs)-1]
	if last.Type != core.MsgNack || !strings.Contains(string(last.Payload), "no route") {
		t.Fatalf("nack = %+v", last)
	}
}

// remoteReply hands the ECM a remote PIRTE's reply, as it arrives on the
// ECM's type I required port S3.
func remoteReply(e *ECM, reply core.Message) {
	frame, _ := reply.MarshalBinary()
	e.OnSWCData(3, frame)
}

func TestRemoteAckForwardedToServer(t *testing.T) {
	e, _, server, _ := newECM(t)
	remoteReply(e, core.Message{Type: core.MsgAck, Plugin: "OP", ECU: "ECU2", SWC: "SW-C2", Seq: 9})
	msgs := server.messages(t)
	last := msgs[len(msgs)-1]
	if last.Type != core.MsgAck || last.Plugin != "OP" || last.Seq != 9 {
		t.Fatalf("forwarded ack = %+v", last)
	}
}

func TestEndpointFrameRoutesLocally(t *testing.T) {
	e, captured, _, _ := newECM(t)
	e.HandleServerMessage(installMsg(t, comPackage(t), "ECU1", "SW-C1", 1))
	// 'Wheels' goes to COM's P0 (ECC), COM forwards P2-V0.P0 -> S0 mux.
	e.HandleEndpointFrame("111.22.33.44:56789", "Wheels", 33)
	mux := captured[0]
	if len(mux) != 1 {
		t.Fatalf("mux writes = %v", captured)
	}
	d := core.NewDec(mux[0])
	if rec := d.U16(); rec != 0 {
		t.Fatalf("recipient = P%d, want P0", rec)
	}
	if v := d.I64(); v != 33 {
		t.Fatalf("value = %d", v)
	}
	if e.ExternalIn != 1 {
		t.Fatalf("ExternalIn = %d", e.ExternalIn)
	}
}

func TestEndpointFrameRoutesRemotely(t *testing.T) {
	e, captured, _, _ := newECM(t)
	e.AddRoute("ECU2", "SW-C2", 2)
	// ECC entry pointing at a plug-in on ECU2.
	pkg := comPackage(t)
	pkg.Context.ECC = core.ECC{
		{Endpoint: "10.1.1.1:2000", ECU: "ECU2", MessageID: "Horn", Port: 0},
	}
	install := installMsg(t, pkg, "ECU2", "SW-C2", 2)
	e.HandleServerMessage(install)
	// Until the remote install acks, no plug-in owns the ECC's port: the
	// message has no route.
	e.HandleEndpointFrame("10.1.1.1:2000", "Horn", 1)
	if e.ExternalIn != 0 || len(captured[2]) != 1 {
		t.Fatalf("message routed before the install's ack: ExternalIn %d, frames on S2 %d", e.ExternalIn, len(captured[2]))
	}
	remoteReply(e, install.Ack())
	e.HandleEndpointFrame("10.1.1.1:2000", "Horn", 1)
	// Two frames on S2: the forwarded install, then the external message.
	frames := captured[2]
	if len(frames) != 2 {
		t.Fatalf("frames on S2 = %d", len(frames))
	}
	var ext core.Message
	if err := ext.UnmarshalBinary(frames[1]); err != nil {
		t.Fatal(err)
	}
	if ext.Type != core.MsgExternal || ext.ECU != "ECU2" {
		t.Fatalf("ext = %+v", ext)
	}
	port, v, err := core.DecodePortValue(ext.Payload)
	if err != nil || port != 0 || v != 1 {
		t.Fatalf("payload = %v %v %v", port, v, err)
	}
}

func TestUnknownEndpointMessageIgnored(t *testing.T) {
	e, captured, _, _ := newECM(t)
	e.HandleEndpointFrame("1.2.3.4:5", "Ghost", 1)
	if len(captured) != 0 || e.ExternalIn != 0 {
		t.Fatal("unrouted endpoint frame had effects")
	}
}

func TestLocalPluginExternalWriteReachesEndpoint(t *testing.T) {
	e, _, _, endpoint := newECM(t)
	// COM writes on an ECC-routed provided port: extend the context so P3
	// (SpeedFwd) is ECC-routed instead of mux-routed.
	pkg := comPackage(t)
	pkg.Context.PLC = core.PLC{
		{Kind: core.LinkNone, Plugin: 0},
		{Kind: core.LinkNone, Plugin: 1},
		{Kind: core.LinkVirtualRemote, Plugin: 2, Virtual: 0, Remote: 0},
		{Kind: core.LinkNone, Plugin: 3},
	}
	pkg.Context.ECC = append(pkg.Context.ECC,
		core.ECCEntry{Endpoint: "111.22.33.44:56789", ECU: "ECU1", MessageID: "SpeedTelemetry", Port: 3})
	e.HandleServerMessage(installMsg(t, pkg, "ECU1", "SW-C1", 3))
	// Drive COM's SpeedExt (P1) which forwards to P3 -> external.
	if err := e.DeliverToPlugin(1, 88); err != nil {
		t.Fatal(err)
	}
	frames := endpoint.extFrames(t)
	if len(frames) != 1 || frames[0].ID != "SpeedTelemetry" || frames[0].Value != 88 {
		t.Fatalf("endpoint frames = %+v", frames)
	}
	if e.ExternalOut != 1 {
		t.Fatalf("ExternalOut = %d", e.ExternalOut)
	}
}

func TestRemotePluginExternalRelayReachesEndpoint(t *testing.T) {
	e, _, _, endpoint := newECM(t)
	// Register an ECC for a plug-in on ECU2 whose port P3 sends telemetry.
	pkg := comPackage(t)
	pkg.Context.ECC = core.ECC{
		{Endpoint: "111.22.33.44:56789", ECU: "ECU2", MessageID: "RemoteTelemetry", Port: 3},
	}
	e.AddRoute("ECU2", "SW-C2", 2)
	install := installMsg(t, pkg, "ECU2", "SW-C2", 4)
	e.HandleServerMessage(install)
	remoteReply(e, install.Ack())
	// The remote PIRTE wraps the write and it arrives on the ECM's type I
	// required port.
	relay := core.Message{Type: core.MsgExternal, Plugin: "COM", ECU: "ECU2", SWC: "SW-C2",
		Payload: core.EncodePortValue(new([core.PortValueLen]byte), 3, 123)}
	frame, _ := relay.MarshalBinary()
	e.OnSWCData(3, frame)
	frames := endpoint.extFrames(t)
	if len(frames) != 1 || frames[0].ID != "RemoteTelemetry" || frames[0].Value != 123 {
		t.Fatalf("endpoint frames = %+v", frames)
	}
}

func TestUninstallDropsECC(t *testing.T) {
	e, _, _, _ := newECM(t)
	e.HandleServerMessage(installMsg(t, comPackage(t), "ECU1", "SW-C1", 1))
	if _, _, ok := e.lookupByPort("ECU1", 0); !ok {
		t.Fatal("ECC not registered")
	}
	un := core.Message{Type: core.MsgUninstall, Plugin: "COM", ECU: "ECU1", SWC: "SW-C1", Seq: 2}
	e.HandleServerMessage(un)
	if _, _, ok := e.lookupByPort("ECU1", 0); ok {
		t.Fatal("ECC survived uninstall")
	}
	if len(e.Installed()) != 0 {
		t.Fatal("COM survived uninstall")
	}
}

func TestLifecycleViaServer(t *testing.T) {
	e, _, server, _ := newECM(t)
	e.HandleServerMessage(installMsg(t, comPackage(t), "ECU1", "SW-C1", 1))
	e.HandleServerMessage(core.Message{Type: core.MsgStop, Plugin: "COM", ECU: "ECU1", SWC: "SW-C1", Seq: 2})
	ip, _ := e.Plugin("COM")
	if ip.State() != pirte.StateStopped {
		t.Fatalf("state = %v", ip.State())
	}
	e.HandleServerMessage(core.Message{Type: core.MsgStart, Plugin: "COM", ECU: "ECU1", SWC: "SW-C1", Seq: 3})
	if ip.State() != pirte.StateRunning {
		t.Fatalf("state = %v", ip.State())
	}
	msgs := server.messages(t)
	acks := 0
	for _, m := range msgs {
		if m.Type == core.MsgAck {
			acks++
		}
	}
	if acks != 3 {
		t.Fatalf("acks = %d", acks)
	}
}

func TestExtFrameRoundTripOverPipe(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	done := make(chan error, 1)
	go func() { done <- WriteExtFrame(a, "Wheels", -42) }()
	id, v, err := ReadExtFrame(b)
	if err != nil {
		t.Fatal(err)
	}
	if werr := <-done; werr != nil {
		t.Fatal(werr)
	}
	if id != "Wheels" || v != -42 {
		t.Fatalf("frame = %q %d", id, v)
	}
}

func TestServerLinkAsyncOverPipe(t *testing.T) {
	eng := sim.NewEngine()
	p, err := pirte.New(eng, ecmConfig())
	if err != nil {
		t.Fatal(err)
	}
	p.SetSWCWriter(func(core.SWCPortID, []byte) error { return nil })
	e := New(eng, p)
	e.SetDialer(DialerFunc(func(string) (io.ReadWriteCloser, error) {
		return &captureConn{}, nil
	}))
	vehicleSide, serverSide := net.Pipe()
	// net.Pipe writes block until read: consume the hello concurrently.
	helloCh := make(chan core.Message, 1)
	go func() {
		if m, err := core.ReadMessage(serverSide); err == nil {
			helloCh <- m
		}
	}()
	if err := e.ConnectServer(vehicleSide, "VIN999"); err != nil {
		t.Fatal(err)
	}
	select {
	case hello := <-helloCh:
		if hello.Type != core.MsgHello {
			t.Fatalf("hello = %+v", hello)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("no hello")
	}
	// Server pushes an install for the local ECM SW-C.
	msg := installMsg(t, comPackage(t), "ECU1", "SW-C1", 11)
	if err := core.WriteMessage(serverSide, msg); err != nil {
		t.Fatal(err)
	}
	// Pump the engine until the injected work lands and the ack returns.
	ackCh := make(chan core.Message, 1)
	go func() {
		m, err := core.ReadMessage(serverSide)
		if err == nil {
			ackCh <- m
		}
	}()
	deadline := time.After(2 * time.Second)
	for {
		eng.RunFor(sim.Millisecond)
		select {
		case ack := <-ackCh:
			if ack.Type != core.MsgAck || ack.Seq != 11 {
				t.Fatalf("ack = %+v", ack)
			}
			if _, ok := e.Plugin("COM"); !ok {
				t.Fatal("COM not installed")
			}
			e.Close()
			return
		case <-deadline:
			t.Fatal("timed out waiting for ack")
		default:
		}
	}
}
