package pirte

import (
	"errors"
	"strings"
	"testing"

	"dynautosar/internal/bsw"
	"dynautosar/internal/core"
	"dynautosar/internal/plugin"
	"dynautosar/internal/sim"
	"dynautosar/internal/vm"
)

// mustPackage assembles a program and wraps it into a package.
func mustPackage(t *testing.T, src string, ctx core.Context, mutate func(*plugin.Manifest)) plugin.Package {
	t.Helper()
	prog, err := vm.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	m := plugin.Manifest{Developer: "test"}
	bin, err := plugin.FromProgram(prog, m)
	if err != nil {
		t.Fatal(err)
	}
	if mutate != nil {
		mutate(&bin.Manifest)
	}
	pkg := plugin.Package{Binary: bin, Context: ctx}
	if err := pkg.Validate(); err != nil {
		t.Fatal(err)
	}
	return pkg
}

func mustPLC(t *testing.T, s string) core.PLC {
	t.Helper()
	plc, err := core.ParsePLC(s)
	if err != nil {
		t.Fatal(err)
	}
	return plc
}

// standardConfig mirrors SW-C2 of the paper's example: type I pair (S2
// required from the ECM, S3... here S0/S1), one type II pair, and type
// III ports behind virtual ports V4 (WheelsReq, i16be), V5 (SpeedReq,
// i16be) and V6 (SpeedProv, unused).
func standardConfig() Config {
	return Config{
		ECU: "ECU2",
		SWC: "SW-C2",
		SWCPorts: []core.SWCPortSpec{
			{ID: 0, Type: core.TypeI, Direction: core.Required},
			{ID: 1, Type: core.TypeI, Direction: core.Provided},
			{ID: 2, Type: core.TypeII, Direction: core.Required},
			{ID: 3, Type: core.TypeII, Direction: core.Provided},
			{ID: 4, Type: core.TypeIII, Direction: core.Provided, Signal: "WheelsReq"},
			{ID: 5, Type: core.TypeIII, Direction: core.Provided, Signal: "SpeedReq"},
			{ID: 6, Type: core.TypeIII, Direction: core.Required, Signal: "SpeedProv"},
		},
		VirtualPorts: []core.VirtualPortSpec{
			{ID: 3, SWCPort: 2, Type: core.TypeII, Direction: core.Required, Name: "Mux"},
			{ID: 0, SWCPort: 3, Type: core.TypeII, Direction: core.Provided, Name: "MuxOut"},
			{ID: 4, SWCPort: 4, Type: core.TypeIII, Direction: core.Provided, Name: "WheelsReq", Format: FormatI16},
			{ID: 5, SWCPort: 5, Type: core.TypeIII, Direction: core.Provided, Name: "SpeedReq", Format: FormatI16},
			{ID: 6, SWCPort: 6, Type: core.TypeIII, Direction: core.Required, Name: "SpeedProv", Format: FormatI16},
		},
	}
}

// opSrc is the paper's OP plug-in: P0 (WheelsIn) and P1 (SpeedIn) receive
// from COM through the type II mux; P2/P3 forward to the type III virtual
// ports WheelsReq/SpeedReq.
const opSrc = `
.plugin OP 1.0
.port WheelsIn required
.port SpeedIn required
.port WheelsOut provided
.port SpeedOut provided
on_message WheelsIn:
	ARG
	PWR WheelsOut
	RET
on_message SpeedIn:
	ARG
	PWR SpeedOut
	RET
`

func opContext() core.Context {
	return core.Context{
		PIC: core.PIC{
			{Name: "WheelsIn", ID: 0},
			{Name: "SpeedIn", ID: 1},
			{Name: "WheelsOut", ID: 2},
			{Name: "SpeedOut", ID: 3},
		},
		// The paper's PLC for OP: {P0-V3, P1-V3, P2-V4, P3-V5}.
		PLC: core.PLC{
			{Kind: core.LinkVirtual, Plugin: 0, Virtual: 3},
			{Kind: core.LinkVirtual, Plugin: 1, Virtual: 3},
			{Kind: core.LinkVirtual, Plugin: 2, Virtual: 4},
			{Kind: core.LinkVirtual, Plugin: 3, Virtual: 5},
		},
	}
}

// capturePIRTE builds a standalone PIRTE capturing SW-C port writes.
func capturePIRTE(t *testing.T, cfg Config) (*PIRTE, *sim.Engine, map[core.SWCPortID][][]byte) {
	t.Helper()
	eng := sim.NewEngine()
	p, err := New(eng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	captured := make(map[core.SWCPortID][][]byte)
	p.SetSWCWriter(func(sid core.SWCPortID, data []byte) error {
		captured[sid] = append(captured[sid], append([]byte(nil), data...))
		return nil
	})
	return p, eng, captured
}

func TestInstallOPAndRouteTypeIII(t *testing.T) {
	p, _, captured := capturePIRTE(t, standardConfig())
	if err := p.Install(mustPackage(t, opSrc, opContext(), nil)); err != nil {
		t.Fatal(err)
	}
	// Simulate the mux delivering 'Wheels' (recipient P0, value 42).
	p.OnSWCData(2, muxEncode(0, 42))
	got := captured[4] // S4 carries WheelsReq
	if len(got) != 1 {
		t.Fatalf("S4 writes = %v", captured)
	}
	v, err := decodeValue(FormatI16, got[0])
	if err != nil || v != 42 {
		t.Fatalf("S4 payload = %v (%v)", v, err)
	}
	// 'Speed' to P1 lands on S5.
	p.OnSWCData(2, muxEncode(1, -7))
	if v, _ := decodeValue(FormatI16, captured[5][0]); v != -7 {
		t.Fatalf("S5 payload = %d", v)
	}
}

func TestTypeIIOutboundAttachesRecipient(t *testing.T) {
	cfg := standardConfig()
	p, _, captured := capturePIRTE(t, cfg)
	// COM-like plug-in: P2-V0.P0 (remote recipient P0).
	src := `
.plugin COMish 1.0
.port in required
.port out provided
on_message in:
	ARG
	PWR out
	RET
`
	ctx := core.Context{
		PIC: core.PIC{{Name: "in", ID: 10}, {Name: "out", ID: 11}},
		PLC: core.PLC{{Kind: core.LinkVirtualRemote, Plugin: 11, Virtual: 0, Remote: 0}},
	}
	if err := p.Install(mustPackage(t, src, ctx, nil)); err != nil {
		t.Fatal(err)
	}
	if err := p.DeliverToPlugin(10, 99); err != nil {
		t.Fatal(err)
	}
	got := captured[3] // S3 is the type II provided port behind V0
	if len(got) != 1 {
		t.Fatalf("S3 writes = %v", captured)
	}
	id, v, err := muxDecode(got[0])
	if err != nil || id != 0 || v != 99 {
		t.Fatalf("mux = %v %v %v", id, v, err)
	}
}

func TestLinkPeerDeliversLocally(t *testing.T) {
	p, _, captured := capturePIRTE(t, standardConfig())
	// First plug-in owns port 20 and forwards to the WheelsReq virtual
	// port; the second links P30 as a peer to P20.
	sink := `
.plugin sink 1.0
.port in required
.port out provided
on_message in:
	ARG
	PWR out
	RET
`
	sinkCtx := core.Context{
		PIC: core.PIC{{Name: "in", ID: 20}, {Name: "out", ID: 21}},
		PLC: core.PLC{{Kind: core.LinkVirtual, Plugin: 21, Virtual: 4}},
	}
	if err := p.Install(mustPackage(t, sink, sinkCtx, nil)); err != nil {
		t.Fatal(err)
	}
	source := `
.plugin source 1.0
.port trigger required
.port out provided
on_message trigger:
	ARG
	PWR out
	RET
`
	srcCtx := core.Context{
		PIC: core.PIC{{Name: "trigger", ID: 30}, {Name: "out", ID: 31}},
		PLC: core.PLC{{Kind: core.LinkPeer, Plugin: 31, Peer: 20}},
	}
	if err := p.Install(mustPackage(t, source, srcCtx, nil)); err != nil {
		t.Fatal(err)
	}
	if err := p.DeliverToPlugin(30, 1234); err != nil {
		t.Fatal(err)
	}
	if len(captured[4]) != 1 {
		t.Fatalf("peer chain did not reach S4: %v", captured)
	}
	if v, _ := decodeValue(FormatI16, captured[4][0]); v != 1234 {
		t.Fatalf("peer chain value = %d", v)
	}
}

func TestDirectWriteBufferedWithoutECC(t *testing.T) {
	p, _, _ := capturePIRTE(t, standardConfig())
	src := `
.plugin direct 1.0
.port in required
.port out provided
on_message in:
	ARG
	PWR out
	RET
`
	ctx := core.Context{
		PIC: core.PIC{{Name: "in", ID: 40}, {Name: "out", ID: 41}},
		PLC: core.PLC{{Kind: core.LinkNone, Plugin: 41}},
	}
	if err := p.Install(mustPackage(t, src, ctx, nil)); err != nil {
		t.Fatal(err)
	}
	_ = p.DeliverToPlugin(40, 5)
	v, ok := p.DirectRead(41)
	if !ok || v != 5 {
		t.Fatalf("DirectRead = %v %v", v, ok)
	}
	if _, ok := p.DirectRead(99); ok {
		t.Fatal("DirectRead on unknown port resolved")
	}
}

func TestDirectWriteWithECCWrapsExternal(t *testing.T) {
	p, _, captured := capturePIRTE(t, standardConfig())
	src := `
.plugin ext 1.0
.port in required
.port out provided
on_message in:
	ARG
	PWR out
	RET
`
	ctx := core.Context{
		PIC: core.PIC{{Name: "in", ID: 50}, {Name: "out", ID: 51}},
		PLC: core.PLC{{Kind: core.LinkNone, Plugin: 51}},
		ECC: core.ECC{{Endpoint: "10.0.0.9:1000", ECU: "ECU2", MessageID: "Telemetry", Port: 51}},
	}
	if err := p.Install(mustPackage(t, src, ctx, func(m *plugin.Manifest) { m.External = true })); err != nil {
		t.Fatal(err)
	}
	_ = p.DeliverToPlugin(50, 777)
	frames := captured[1] // type I provided port S1
	if len(frames) != 1 {
		t.Fatalf("type I frames = %d", len(frames))
	}
	var msg core.Message
	if err := msg.UnmarshalBinary(frames[0]); err != nil {
		t.Fatal(err)
	}
	if msg.Type != core.MsgExternal || msg.Plugin != "ext" || msg.ECU != "ECU2" {
		t.Fatalf("msg = %+v", msg)
	}
	id, v, err := extDecode(msg.Payload)
	if err != nil || id != 51 || v != 777 {
		t.Fatalf("ext payload = %v %v %v", id, v, err)
	}
}

func TestTypeIInstallMessageAcks(t *testing.T) {
	p, _, captured := capturePIRTE(t, standardConfig())
	pkg := mustPackage(t, opSrc, opContext(), nil)
	raw, err := pkg.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	install := core.Message{Type: core.MsgInstall, Plugin: "OP", ECU: "ECU2", SWC: "SW-C2", Seq: 7, Payload: raw}
	frame, _ := install.MarshalBinary()
	p.OnSWCData(0, frame) // type I required port
	if _, ok := p.Plugin("OP"); !ok {
		t.Fatal("OP not installed via type I")
	}
	acks := captured[1]
	if len(acks) != 1 {
		t.Fatalf("acks = %d", len(acks))
	}
	var ack core.Message
	if err := ack.UnmarshalBinary(acks[0]); err != nil {
		t.Fatal(err)
	}
	if ack.Type != core.MsgAck || ack.Seq != 7 || ack.Plugin != "OP" {
		t.Fatalf("ack = %+v", ack)
	}
}

func TestTypeIBadPackageNacks(t *testing.T) {
	p, _, captured := capturePIRTE(t, standardConfig())
	install := core.Message{Type: core.MsgInstall, Plugin: "X", Seq: 9, Payload: []byte("garbage")}
	frame, _ := install.MarshalBinary()
	p.OnSWCData(0, frame)
	var nack core.Message
	if err := nack.UnmarshalBinary(captured[1][0]); err != nil {
		t.Fatal(err)
	}
	if nack.Type != core.MsgNack || nack.Seq != 9 {
		t.Fatalf("nack = %+v", nack)
	}
	if !strings.Contains(string(nack.Payload), "bad package") {
		t.Fatalf("nack reason = %q", nack.Payload)
	}
}

func TestTypeILifeCycleMessages(t *testing.T) {
	p, _, captured := capturePIRTE(t, standardConfig())
	if err := p.Install(mustPackage(t, opSrc, opContext(), nil)); err != nil {
		t.Fatal(err)
	}
	send := func(mt core.MsgType, name core.PluginName, seq uint32) core.Message {
		m := core.Message{Type: mt, Plugin: name, Seq: seq}
		frame, _ := m.MarshalBinary()
		before := len(captured[1])
		p.OnSWCData(0, frame)
		if len(captured[1]) != before+1 {
			t.Fatalf("no reply to %v", mt)
		}
		var reply core.Message
		if err := reply.UnmarshalBinary(captured[1][len(captured[1])-1]); err != nil {
			t.Fatal(err)
		}
		return reply
	}
	if r := send(core.MsgStop, "OP", 1); r.Type != core.MsgAck {
		t.Fatalf("stop reply = %+v", r)
	}
	ip, _ := p.Plugin("OP")
	if ip.State() != StateStopped {
		t.Fatalf("state = %v", ip.State())
	}
	if r := send(core.MsgStart, "OP", 2); r.Type != core.MsgAck {
		t.Fatalf("start reply = %+v", r)
	}
	if ip.State() != StateRunning {
		t.Fatalf("state = %v", ip.State())
	}
	if r := send(core.MsgUninstall, "OP", 3); r.Type != core.MsgAck {
		t.Fatalf("uninstall reply = %+v", r)
	}
	if len(p.Installed()) != 0 {
		t.Fatal("OP still installed")
	}
	if r := send(core.MsgUninstall, "OP", 4); r.Type != core.MsgNack {
		t.Fatalf("double uninstall reply = %+v", r)
	}
}

func TestExternalInboundMessage(t *testing.T) {
	p, _, captured := capturePIRTE(t, standardConfig())
	if err := p.Install(mustPackage(t, opSrc, opContext(), nil)); err != nil {
		t.Fatal(err)
	}
	ext := core.Message{Type: core.MsgExternal, ECU: "ECU2", SWC: "SW-C2", Payload: extEncode(0, 55)}
	frame, _ := ext.MarshalBinary()
	p.OnSWCData(0, frame)
	if len(captured[4]) != 1 {
		t.Fatalf("external message did not reach WheelsReq: %v", captured)
	}
}

func TestMonitorsProtectTypeIII(t *testing.T) {
	p, _, captured := capturePIRTE(t, standardConfig())
	rangeMon := &RangeMonitor{Min: -100, Max: 100, Clamp: true}
	if err := p.AddMonitor(4, rangeMon); err != nil {
		t.Fatal(err)
	}
	rate := &RateMonitor{Window: 1000, Max: 2}
	if err := p.AddMonitor(5, rate); err != nil {
		t.Fatal(err)
	}
	if err := p.AddMonitor(99, rangeMon); err == nil {
		t.Fatal("monitor on unknown virtual port accepted")
	}
	if err := p.Install(mustPackage(t, opSrc, opContext(), nil)); err != nil {
		t.Fatal(err)
	}
	// Out-of-range wheel command is clamped.
	p.OnSWCData(2, muxEncode(0, 5000))
	if v, _ := decodeValue(FormatI16, captured[4][0]); v != 100 {
		t.Fatalf("clamped = %d", v)
	}
	if rangeMon.Violations != 1 {
		t.Fatalf("violations = %d", rangeMon.Violations)
	}
	// Third speed write within the window is dropped.
	for i := 0; i < 3; i++ {
		p.OnSWCData(2, muxEncode(1, int64(i)))
	}
	if len(captured[5]) != 2 {
		t.Fatalf("rate-limited writes = %d", len(captured[5]))
	}
	if rate.Dropped != 1 {
		t.Fatalf("dropped = %d", rate.Dropped)
	}
	if _, drops, ok := p.VirtualPortStats(5); !ok || drops != 1 {
		t.Fatalf("VirtualPortStats drops = %d %v", drops, ok)
	}
}

func TestQuotasAndClashes(t *testing.T) {
	cfg := standardConfig()
	cfg.MaxPlugins = 1
	cfg.MemoryQuota = 4
	p, _, _ := capturePIRTE(t, cfg)
	if err := p.Install(mustPackage(t, opSrc, opContext(), nil)); err != nil {
		t.Fatal(err)
	}
	// Duplicate name.
	err := p.Install(mustPackage(t, opSrc, opContext(), nil))
	if !errors.Is(err, ErrDuplicate) {
		t.Fatalf("duplicate: %v", err)
	}
	// Plug-in limit.
	other := strings.Replace(opSrc, ".plugin OP", ".plugin OP2", 1)
	ctx2 := opContext()
	for i := range ctx2.PIC {
		ctx2.PIC[i].ID += 100
	}
	for i := range ctx2.PLC {
		ctx2.PLC[i].Plugin += 100
	}
	err = p.Install(mustPackage(t, other, ctx2, nil))
	if !errors.Is(err, ErrQuota) {
		t.Fatalf("limit: %v", err)
	}
	// Port clash on a fresh PIRTE without the plug-in limit.
	cfg = standardConfig()
	p2, _, _ := capturePIRTE(t, cfg)
	if err := p2.Install(mustPackage(t, opSrc, opContext(), nil)); err != nil {
		t.Fatal(err)
	}
	err = p2.Install(mustPackage(t, other, opContext(), nil))
	if !errors.Is(err, ErrPortClash) {
		t.Fatalf("clash: %v", err)
	}
	// Memory quota.
	cfg = standardConfig()
	cfg.MemoryQuota = 1
	p3, _, _ := capturePIRTE(t, cfg)
	hungry := `
.plugin hungry 1.0
.port in required
.globals 8
on_message in:
	RET
`
	hctx := core.Context{PIC: core.PIC{{Name: "in", ID: 0}}}
	err = p3.Install(mustPackage(t, hungry, hctx, nil))
	if !errors.Is(err, ErrQuota) {
		t.Fatalf("memory: %v", err)
	}
}

func TestBadLinksRejected(t *testing.T) {
	p, _, _ := capturePIRTE(t, standardConfig())
	src := `
.plugin bad 1.0
.port in required
.port out provided
on_message in:
	RET
`
	cases := []core.PLC{
		{{Kind: core.LinkVirtual, Plugin: 1, Virtual: 99}},                 // missing virtual
		{{Kind: core.LinkVirtualRemote, Plugin: 1, Virtual: 4, Remote: 0}}, // remote on type III
		{{Kind: core.LinkVirtualRemote, Plugin: 1, Virtual: 3, Remote: 0}}, // remote on inbound type II
		{{Kind: core.LinkVirtual, Plugin: 1, Virtual: 3}},                  // provided port on inbound mux
		{{Kind: core.LinkVirtual, Plugin: 1, Virtual: 6}},                  // provided plug-in port to required SW-C port
		{{Kind: core.LinkPeer, Plugin: 1, Peer: 77}},                       // unknown peer
	}
	for i, plc := range cases {
		ctx := core.Context{PIC: core.PIC{{Name: "in", ID: 0}, {Name: "out", ID: 1}}, PLC: plc}
		err := p.Install(mustPackage(t, src, ctx, nil))
		if !errors.Is(err, ErrBadLink) {
			t.Errorf("case %d: err = %v", i, err)
		}
		if len(p.Installed()) != 0 {
			t.Fatalf("case %d: partial install leaked state", i)
		}
	}
}

func TestFaultPolicyStop(t *testing.T) {
	p, _, _ := capturePIRTE(t, standardConfig())
	crash := `
.plugin crash 1.0
.port in required
on_message in:
	PUSH 1
	PUSH 0
	DIV
	RET
`
	ctx := core.Context{PIC: core.PIC{{Name: "in", ID: 60}}}
	if err := p.Install(mustPackage(t, crash, ctx, nil)); err != nil {
		t.Fatal(err)
	}
	_ = p.DeliverToPlugin(60, 1)
	ip, _ := p.Plugin("crash")
	if ip.State() != StateFaulted {
		t.Fatalf("state = %v", ip.State())
	}
	if ip.LastFault == nil || !errors.Is(ip.LastFault, vm.ErrDivByZero) {
		t.Fatalf("LastFault = %v", ip.LastFault)
	}
	if p.Faults != 1 {
		t.Fatalf("Faults = %d", p.Faults)
	}
}

// TestRunPastCodeEndFaultsPlugin: the vehicle side runs only
// Program.Verify on an incoming binary, which accepts code that runs past
// its last instruction. Such a plug-in must end faulted like any other
// trap; it used to take the whole ECU process down with an index panic.
func TestRunPastCodeEndFaultsPlugin(t *testing.T) {
	p, _, captured := capturePIRTE(t, standardConfig())
	if err := p.Install(mustPackage(t, opSrc, opContext(), nil)); err != nil {
		t.Fatal(err)
	}
	bin, err := plugin.FromProgram(&vm.Program{
		Name: "x", Version: "1.0",
		Code:     []vm.Instr{{Op: vm.OpPush, Arg: 1}},
		Handlers: []vm.Handler{{Kind: vm.HandlerInit, Entry: 0}},
	}, plugin.Manifest{Developer: "test"})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Install(plugin.Package{Binary: bin}); err != nil {
		t.Fatal(err)
	}
	ip, _ := p.Plugin("x")
	if ip.State() != StateFaulted || !errors.Is(ip.LastFault, vm.ErrCodeEnd) {
		t.Fatalf("state = %v, LastFault = %v", ip.State(), ip.LastFault)
	}
	if err := p.DeliverToPlugin(0, 42); err != nil {
		t.Fatal(err)
	}
	if got := captured[4]; len(got) != 1 {
		t.Fatalf("OP stopped serving beside the faulted plug-in: wrote %v", got)
	}
}

func TestFaultPolicyRestart(t *testing.T) {
	cfg := standardConfig()
	cfg.FaultPolicy = FaultRestart
	p, _, _ := capturePIRTE(t, cfg)
	// Crashes only when the argument is zero; init leaves a marker global
	// that must be reset by the restart.
	src := `
.plugin flaky 1.0
.port in required
.globals 1
on_init:
	PUSH 1
	STG 0
	RET
on_message in:
	ARG
	JZ boom
	RET
boom:
	PUSH 1
	PUSH 0
	DIV
	RET
`
	ctx := core.Context{PIC: core.PIC{{Name: "in", ID: 70}}}
	if err := p.Install(mustPackage(t, src, ctx, nil)); err != nil {
		t.Fatal(err)
	}
	ip, _ := p.Plugin("flaky")
	_ = p.DeliverToPlugin(70, 0) // trap -> restart fresh
	if ip.State() != StateRunning {
		t.Fatalf("state after restart = %v", ip.State())
	}
	// Exhaust the restart limit.
	for i := 0; i < RestartLimit+1; i++ {
		_ = p.DeliverToPlugin(70, 0)
	}
	if ip.State() != StateFaulted {
		t.Fatalf("state after limit = %v", ip.State())
	}
}

func TestTimersDriveHandlers(t *testing.T) {
	p, eng, captured := capturePIRTE(t, standardConfig())
	src := `
.plugin ticker 1.0
.port out provided
on_init:
	PUSH 1000
	TSET 0
	RET
on_timer 0:
	CLOCK
	PWR out
	RET
`
	ctx := core.Context{
		PIC: core.PIC{{Name: "out", ID: 80}},
		PLC: core.PLC{{Kind: core.LinkVirtual, Plugin: 80, Virtual: 4}},
	}
	if err := p.Install(mustPackage(t, src, ctx, nil)); err != nil {
		t.Fatal(err)
	}
	eng.RunUntil(3500)
	if len(captured[4]) != 3 {
		t.Fatalf("timer ticks = %d, want 3", len(captured[4]))
	}
	// Stopping clears timers.
	if err := p.Stop("ticker"); err != nil {
		t.Fatal(err)
	}
	eng.RunUntil(10_000)
	if len(captured[4]) != 3 {
		t.Fatalf("ticks after stop = %d", len(captured[4]))
	}
}

func TestNvMPersistAndRestore(t *testing.T) {
	nvm := bsw.NewNvM()
	cfg := standardConfig()
	cfg.NvM = nvm
	p, _, _ := capturePIRTE(t, cfg)
	if err := p.Install(mustPackage(t, opSrc, opContext(), nil)); err != nil {
		t.Fatal(err)
	}
	if len(nvm.Blocks()) != 1 {
		t.Fatalf("NvM blocks = %v", nvm.Blocks())
	}
	// "Replace the ECU": fresh PIRTE over the same NvM.
	cfg2 := standardConfig()
	cfg2.NvM = nvm
	p2, _, captured2 := capturePIRTE(t, cfg2)
	n, err := p2.RestoreFromNvM()
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("restored = %d", n)
	}
	if _, ok := p2.Plugin("OP"); !ok {
		t.Fatal("OP not restored")
	}
	// Restored plug-in routes as before.
	p2.OnSWCData(2, muxEncode(0, 9))
	if len(captured2[4]) != 1 {
		t.Fatal("restored plug-in does not route")
	}
	// Uninstall clears the NvM block.
	if err := p2.Uninstall("OP"); err != nil {
		t.Fatal(err)
	}
	if len(nvm.Blocks()) != 0 {
		t.Fatalf("NvM blocks after uninstall = %v", nvm.Blocks())
	}
}

func TestConfigValidation(t *testing.T) {
	eng := sim.NewEngine()
	bad := standardConfig()
	bad.VirtualPorts[0].SWCPort = 99
	if _, err := New(eng, bad); err == nil {
		t.Fatal("dangling virtual port accepted")
	}
	bad = standardConfig()
	bad.VirtualPorts = append(bad.VirtualPorts, bad.VirtualPorts[0])
	if _, err := New(eng, bad); err == nil {
		t.Fatal("duplicate virtual port accepted")
	}
	bad = standardConfig()
	bad.SWCPorts = append(bad.SWCPorts, bad.SWCPorts[0])
	if _, err := New(eng, bad); err == nil {
		t.Fatal("duplicate SW-C port accepted")
	}
	bad = standardConfig()
	bad.VirtualPorts[0].Type = core.TypeIII // mismatch with SW-C port type
	if _, err := New(eng, bad); err == nil {
		t.Fatal("type mismatch accepted")
	}
}

func TestUnknownPluginOperations(t *testing.T) {
	p, _, _ := capturePIRTE(t, standardConfig())
	if err := p.Uninstall("ghost"); !errors.Is(err, ErrUnknownPlugin) {
		t.Fatalf("uninstall: %v", err)
	}
	if err := p.Stop("ghost"); !errors.Is(err, ErrUnknownPlugin) {
		t.Fatalf("stop: %v", err)
	}
	if err := p.Start("ghost"); !errors.Is(err, ErrUnknownPlugin) {
		t.Fatalf("start: %v", err)
	}
	if err := p.DeliverToPlugin(999, 0); err == nil {
		t.Fatal("delivery to unowned port accepted")
	}
}

func TestStateStrings(t *testing.T) {
	if StateRunning.String() != "running" || StateStopped.String() != "stopped" ||
		StateFaulted.String() != "faulted" {
		t.Fatal("state strings")
	}
}
