package ecm_test

import (
	"bytes"
	"fmt"
	"io"
	"slices"
	"strings"
	"testing"

	"dynautosar/internal/core"
	"dynautosar/internal/ecm"
	"dynautosar/internal/pirte"
	"dynautosar/internal/plugin"
	"dynautosar/internal/sim"
	"dynautosar/internal/vehicle"
	"dynautosar/internal/vm"
)

// The vehicle's reconfiguration paths, enumerated on the model car: the
// ECM on ECU1 sends every life-cycle frame over CAN to the PIRTE of SW-C2
// on ECU2, where the counter plug-in CNT lives. CNT has an ECC: the
// phone's "Ping" reaches its In port through the ECM. The engine runs
// event by event. Before each frame and at every phase boundary — any
// change of CNT's presence, version, state or upgrade flag, or of the
// replies the server holds — the test injects one external "Ping" and
// one direct delivery to In. On every path it checks:
//
//   - exactly one ack or nack per frame, carrying that frame's seq;
//   - every ECC route names a port of an installed plug-in of that name,
//     and no installed plug-in lost its routes (checked whenever no
//     install or uninstall frame is in flight);
//   - no message is lost or duplicated (delay is allowed): CNT counts
//     every message it runs, and the count ends equal to the messages
//     the vehicle accepted (an uninstall may take queued ones with it);
//   - CNT ends all-old or all-new: code, ECC and NvM record of one
//     version, no upgrade in flight.

const (
	cntIn    core.PluginPortID = 10
	cntCount core.PluginPortID = 11
)

// cntSrc counts its messages in global 0 and latches the count on its
// PIRTE-direct Count port.
const cntSrc = `
.plugin CNT %s
.port In required
.port Count provided
.globals 1
on_message In:
	LDG 0
	PUSH 1
	ADD
	STG 0
	LDG 0
	PWR Count
	RET
`

// cntTrapSrc traps on every message: the upgrade whose probe rolls back.
const cntTrapSrc = `
.plugin CNT 3.0
.port In required
.port Count provided
.globals 1
on_message In:
	PUSH 1
	PUSH 0
	DIV
	RET
`

func cntPackage(t *testing.T, src string, msgIDs ...string) plugin.Package {
	t.Helper()
	prog, err := vm.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	bin, err := plugin.FromProgram(prog, plugin.Manifest{Developer: "sics", External: true})
	if err != nil {
		t.Fatal(err)
	}
	ctx := core.Context{
		PIC: core.PIC{{Name: "In", ID: cntIn}, {Name: "Count", ID: cntCount}},
		PLC: core.PLC{{Kind: core.LinkNone, Plugin: cntIn}, {Kind: core.LinkNone, Plugin: cntCount}},
	}
	for _, id := range msgIDs {
		ctx.ECC = append(ctx.ECC, core.ECCEntry{Endpoint: vehicle.PhoneEndpoint, ECU: vehicle.ECU2, MessageID: id, Port: cntIn})
	}
	pkg := plugin.Package{Binary: bin, Context: ctx}
	if err := pkg.Validate(); err != nil {
		t.Fatal(err)
	}
	return pkg
}

// serverLog is the trusted-server side of the link: it decodes every
// message the ECM writes as it arrives.
type serverLog struct {
	buf  []byte
	msgs []core.Message
}

func (s *serverLog) Write(p []byte) (int, error) {
	s.buf = append(s.buf, p...)
	for {
		r := bytes.NewReader(s.buf)
		m, err := core.ReadMessage(r)
		if err != nil {
			return len(p), nil
		}
		s.msgs = append(s.msgs, m)
		s.buf = s.buf[len(s.buf)-r.Len():]
	}
}
func (s *serverLog) Read([]byte) (int, error) { return 0, io.EOF }
func (s *serverLog) Close() error             { return nil }

// replies returns the acks and nacks the server received for seq.
func (s *serverLog) replies(seq uint32) []core.Message {
	var out []core.Message
	for _, m := range s.msgs {
		if (m.Type == core.MsgAck || m.Type == core.MsgNack) && m.Seq == seq {
			out = append(out, m)
		}
	}
	return out
}

// pathFrame is one life-cycle frame of a path.
type pathFrame struct {
	typ core.MsgType
	pkg plugin.Package // install and upgrade
	// at is the phase at which the frame is sent; empty sends it right
	// after the previous frame.
	at string
	// reply is the expected answer; a nack's payload must contain why.
	reply core.MsgType
	why   string
}

type reconfPath struct {
	name      string
	installed bool // CNT 1.0 is installed (and settled) before the path
	frames    []pathFrame
	// end is CNT's version after the path, empty for not installed.
	end string
}

func TestReconfigurationPaths(t *testing.T) {
	v1 := cntPackage(t, fmt.Sprintf(cntSrc, "1.0"), "Ping")
	v2 := cntPackage(t, fmt.Sprintf(cntSrc, "2.0"), "Ping", "Ping2")
	v3 := cntPackage(t, cntTrapSrc, "Ping", "Ping3")
	upgradeTo := func(pkg plugin.Package) pathFrame {
		return pathFrame{typ: core.MsgUpgrade, pkg: pkg, reply: core.MsgAck}
	}
	refusedUninstall := func(at string) pathFrame {
		return pathFrame{typ: core.MsgUninstall, at: at, reply: core.MsgNack, why: "upgrade already in progress"}
	}
	rollback := upgradeTo(v3)
	rollback.reply, rollback.why = core.MsgNack, "rollback: "
	// unlinkable names a virtual port SW-C2 does not have: its install
	// is refused.
	unlinkable := cntPackage(t, fmt.Sprintf(cntSrc, "1.0"), "Ping")
	unlinkable.Context.PLC = core.PLC{{Kind: core.LinkVirtual, Plugin: cntIn, Virtual: 9}}
	paths := []reconfPath{
		{name: "install", frames: []pathFrame{{typ: core.MsgInstall, pkg: v1, reply: core.MsgAck}}, end: "1.0"},
		{name: "install refused", frames: []pathFrame{{typ: core.MsgInstall, pkg: unlinkable, reply: core.MsgNack, why: "missing V9"}}},
		{name: "upgrade commit", installed: true, frames: []pathFrame{upgradeTo(v2)}, end: "2.0"},
		{name: "upgrade probe trap rollback", installed: true, frames: []pathFrame{rollback}, end: "1.0"},
		{name: "uninstall", installed: true, frames: []pathFrame{{typ: core.MsgUninstall, reply: core.MsgAck}}},
		// An uninstall refused while the upgrade is in flight, sent with
		// the upgrade frame, in its quiesce window and in its probe.
		{name: "uninstall refused mid-upgrade/sent", installed: true,
			frames: []pathFrame{upgradeTo(v2), refusedUninstall("")}, end: "2.0"},
		{name: "uninstall refused mid-upgrade/quiesce", installed: true,
			frames: []pathFrame{upgradeTo(v2), refusedUninstall("1.0 quiesce")}, end: "2.0"},
		{name: "uninstall refused mid-upgrade/probe", installed: true,
			frames: []pathFrame{upgradeTo(v2), refusedUninstall("2.0 probe")}, end: "2.0"},
	}
	for _, path := range paths {
		t.Run(path.name, func(t *testing.T) { runPath(t, path, v1) })
	}
}

func runPath(t *testing.T, path reconfPath, v1 plugin.Package) {
	eng := sim.NewEngine()
	car, err := vehicle.NewModelCar(eng, "VIN-PATHS")
	if err != nil {
		t.Fatal(err)
	}
	server := &serverLog{}
	car.ECM.SetDialer(ecm.DialerFunc(func(string) (io.ReadWriteCloser, error) { return &serverLog{}, nil }))
	if err := car.ECM.ConnectServer(server, car.ID); err != nil {
		t.Fatal(err)
	}
	p2 := car.SWC2PIRTE
	seq := uint32(0)
	var sent []pathFrame
	var seqs []uint32
	send := func(f pathFrame) {
		seq++
		msg := core.Message{Type: f.typ, Plugin: "CNT", ECU: vehicle.ECU2, SWC: vehicle.SWC2, Seq: seq}
		if f.typ == core.MsgInstall || f.typ == core.MsgUpgrade {
			if msg.Payload, err = f.pkg.MarshalBinary(); err != nil {
				t.Fatal(err)
			}
		}
		car.ECM.HandleServerMessage(msg)
		sent, seqs = append(sent, f), append(seqs, seq)
	}
	if path.installed {
		send(pathFrame{typ: core.MsgInstall, pkg: v1})
		eng.RunFor(200 * sim.Millisecond)
		if r := server.replies(1); len(r) != 1 || r[0].Type != core.MsgAck {
			t.Fatalf("setup install replies = %+v", r)
		}
		sent, seqs = nil, nil
	}

	// accepted counts the messages the vehicle took for CNT: external
	// ones the ECM routed, direct ones the PIRTE queued.
	accepted, last := int64(0), int64(0)
	inject := func() {
		before := car.ECM.ExternalIn
		car.ECM.HandleEndpointFrame(vehicle.PhoneEndpoint, "Ping", 1)
		accepted += int64(car.ECM.ExternalIn - before)
		if p2.DeliverToPlugin(cntIn, 1) == nil {
			accepted++
		}
	}
	phase := func() string {
		ip, ok := p2.Plugin("CNT")
		if !ok {
			return "absent"
		}
		v := ip.Pkg.Binary.Manifest.Version
		switch {
		case ip.State() == pirte.StateUpgrading:
			return v + " quiesce"
		case p2.Upgrading("CNT"):
			return v + " probe"
		}
		return v + " " + ip.State().String()
	}
	// inFlight reports an install or uninstall frame without its reply:
	// its ECC change leads the PIRTE until the frame arrives.
	inFlight := func() bool {
		for i, f := range sent {
			if f.typ != core.MsgUpgrade && len(server.replies(seqs[i])) == 0 {
				return true
			}
		}
		return false
	}
	boundaries := []string{phase()}
	checkRoutes(t, car, sent, boundaries)
	// Once the path settles the server holds what it holds now (the
	// hello, the setup install's ack) and one reply per frame.
	want := len(server.msgs) + len(path.frames)

	inject()
	next := 0
	for next < len(path.frames) && path.frames[next].at == "" {
		send(path.frames[next])
		next++
		inject()
	}
	state := fmt.Sprintf("%s %d", phase(), len(server.msgs))
	deadline := eng.Now().Add(2 * sim.Second)
	for len(server.msgs) < want && eng.Now() < deadline {
		eng.Step()
		if v, ok := p2.DirectRead(cntCount); ok {
			last = v
		}
		now := fmt.Sprintf("%s %d", phase(), len(server.msgs))
		if now == state {
			continue
		}
		state = now
		boundaries = append(boundaries, phase())
		inject()
		if !inFlight() {
			checkRoutes(t, car, sent, boundaries)
		}
		for next < len(path.frames) && (path.frames[next].at == "" || path.frames[next].at == phase()) {
			send(path.frames[next])
			next++
			inject()
		}
	}
	if next < len(path.frames) {
		t.Fatalf("frame %d never sent: no phase %q on %v", next, path.frames[next].at, boundaries)
	}
	// Let the last messages land.
	eng.RunFor(200 * sim.Millisecond)
	if v, ok := p2.DirectRead(cntCount); ok {
		last = v
	}

	for i, f := range sent {
		r := server.replies(seqs[i])
		if len(r) != 1 {
			t.Fatalf("frame %v seq %d: %d replies %+v (boundaries %v)", f.typ, seqs[i], len(r), r, boundaries)
		}
		if r[0].Type != f.reply || !strings.Contains(string(r[0].Payload), f.why) {
			t.Fatalf("frame %v seq %d: reply %v %q, want %v %q", f.typ, seqs[i], r[0].Type, r[0].Payload, f.reply, f.why)
		}
	}
	if extra := len(server.msgs) - want; extra != 0 {
		t.Fatalf("%d server messages beyond one reply per frame: %+v", extra, server.msgs)
	}
	checkRoutes(t, car, nil, boundaries)

	t.Logf("phases %v; %d messages accepted, %d ran", boundaries, accepted, last)
	ip, ok := p2.Plugin("CNT")
	ecu2, _ := car.ECU(vehicle.ECU2)
	block, persisted := ecu2.NvM.ReadBlock("pirte/" + string(vehicle.SWC2) + "/CNT")
	if path.end == "" {
		if ok || persisted {
			t.Fatalf("CNT left behind: installed %v, NvM record %v", ok, persisted)
		}
		// Traffic queued for a plug-in being removed may go with it; none
		// may run twice. A plug-in that was never installed had no
		// message accepted for it.
		if last > accepted || !path.installed && accepted != last {
			t.Fatalf("CNT ran %d messages of %d accepted", last, accepted)
		}
		return
	}
	if !ok || ip.Pkg.Binary.Manifest.Version != path.end || ip.State() != pirte.StateRunning || p2.Upgrading("CNT") {
		t.Fatalf("CNT ends as %s, want %s running (boundaries %v)", phase(), path.end, boundaries)
	}
	var stored plugin.Package
	if !persisted || stored.UnmarshalBinary(block) != nil || stored.Binary.Manifest.Version != path.end {
		t.Fatalf("NvM record of CNT is not version %s", path.end)
	}
	if last != accepted {
		t.Fatalf("CNT ran %d messages, the vehicle accepted %d (boundaries %v)", last, accepted, boundaries)
	}
}

// checkRoutes checks the ECC registry against the installed population:
// every route names a port of the installed plug-in of its name (or of
// the package an upgrade in flight brings), and every installed plug-in
// whose package has an ECC keeps its routes — exactly its package's
// ECC once no frame is unresolved.
func checkRoutes(t *testing.T, car *vehicle.ModelCar, sent []pathFrame, boundaries []string) {
	t.Helper()
	pirtes := map[core.ECUID]*pirte.PIRTE{vehicle.ECU1: car.ECM.PIRTE, vehicle.ECU2: car.SWC2PIRTE}
	settled := sent == nil
	routed := map[core.PluginName]bool{}
	for _, r := range car.ECM.ECCRoutes() {
		ip, ok := pirtes[r.ECU].Plugin(r.Plugin)
		if !ok {
			t.Fatalf("ECC route of %s on %s names no installed plug-in (boundaries %v)", r.Plugin, r.ECU, boundaries)
		}
		pics := []core.PIC{ip.Pkg.Context.PIC}
		for _, f := range sent {
			if f.typ == core.MsgUpgrade {
				pics = append(pics, f.pkg.Context.PIC)
			}
		}
		for _, entry := range r.Entries {
			declared := func(pic core.PIC) bool {
				return slices.ContainsFunc(pic, func(a core.PICEntry) bool { return a.ID == entry.Port })
			}
			if !slices.ContainsFunc(pics, declared) {
				t.Fatalf("ECC route %s names port %s, not one of %s (boundaries %v)", entry.MessageID, entry.Port, r.Plugin, boundaries)
			}
		}
		if settled && !slices.Equal(r.Entries, ip.Pkg.Context.ECC) {
			t.Fatalf("ECC of %s is %v, its package's %v", r.Plugin, r.Entries, ip.Pkg.Context.ECC)
		}
		routed[r.Plugin] = true
	}
	for ecu, p := range pirtes {
		for _, name := range p.Installed() {
			if ip, _ := p.Plugin(name); len(ip.Pkg.Context.ECC) > 0 && !routed[name] {
				t.Fatalf("%s on %s lost its ECC routes (boundaries %v)", name, ecu, boundaries)
			}
		}
	}
}
