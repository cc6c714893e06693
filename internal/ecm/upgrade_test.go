package ecm

import (
	"io"
	"strings"
	"testing"

	"dynautosar/internal/core"
	"dynautosar/internal/pirte"
	"dynautosar/internal/plugin"
	"dynautosar/internal/sim"
	"dynautosar/internal/vm"
)

// The ECM's side of a live upgrade: the MsgUpgrade life cycle message
// swaps the plug-in's ECC routing to the new version's atomically with
// the swap, and a vehicle-side rollback restores the old routing when
// the nack passes back through.

const comSrcV2 = `
.plugin COM 2.0
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

// comSrcBad traps on the first external wheels message: the upgrade
// that must fail its probe and roll back.
const comSrcBad = `
.plugin COM 3.0
.port WheelsExt required
.port SpeedExt required
.port WheelsFwd provided
.port SpeedFwd provided
on_message WheelsExt:
	PUSH 1
	PUSH 0
	DIV
	RET
`

// comContextV2 keeps the PIC stable (the server forces recorded ids)
// but renames the external message ids — the ECC the swap installs.
func comContextV2() core.Context {
	ctx := comContext()
	ctx.ECC = core.ECC{
		{Endpoint: "111.22.33.44:56789", ECU: "ECU1", MessageID: "Wheels2", Port: 0},
		{Endpoint: "111.22.33.44:56789", ECU: "ECU1", MessageID: "Speed2", Port: 1},
	}
	return ctx
}

func pkgFrom(t *testing.T, src string, ctx core.Context) plugin.Package {
	t.Helper()
	prog, err := vm.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	bin, err := plugin.FromProgram(prog, plugin.Manifest{Developer: "sics", External: len(ctx.ECC) > 0})
	if err != nil {
		t.Fatal(err)
	}
	pkg := plugin.Package{Binary: bin, Context: ctx}
	if err := pkg.Validate(); err != nil {
		t.Fatal(err)
	}
	return pkg
}

// newUpgradeECM is newECM with the simulation engine exposed, so tests
// can run the quiesce and probe windows forward.
func newUpgradeECM(t *testing.T) (*ECM, *sim.Engine, *captureConn) {
	t.Helper()
	eng := sim.NewEngine()
	p, err := pirte.New(eng, ecmConfig())
	if err != nil {
		t.Fatal(err)
	}
	p.SetSWCWriter(func(core.SWCPortID, []byte) error { return nil })
	e := New(eng, p)
	server := &captureConn{}
	e.SetDialer(DialerFunc(func(string) (io.ReadWriteCloser, error) { return &captureConn{}, nil }))
	if err := e.ConnectServer(server, "VIN123"); err != nil {
		t.Fatal(err)
	}
	return e, eng, server
}

func upgradeMsg(t *testing.T, pkg plugin.Package, seq uint32) core.Message {
	t.Helper()
	raw, err := pkg.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	return core.Message{Type: core.MsgUpgrade, Plugin: pkg.Binary.Manifest.Name,
		ECU: "ECU1", SWC: "SW-C1", Seq: seq, Payload: raw}
}

func lastReply(t *testing.T, server *captureConn) core.Message {
	t.Helper()
	msgs := server.messages(t)
	for i := len(msgs) - 1; i >= 0; i-- {
		if msgs[i].Type == core.MsgAck || msgs[i].Type == core.MsgNack {
			return msgs[i]
		}
	}
	t.Fatal("no ack/nack on the server link")
	return core.Message{}
}

func TestUpgradeSwapsECCAndAcks(t *testing.T) {
	e, eng, server := newUpgradeECM(t)
	e.HandleServerMessage(installMsg(t, comPackage(t), "ECU1", "SW-C1", 1))
	// Old routing live: "Wheels" reaches P0.
	e.HandleEndpointFrame("phone", "Wheels", 7)
	if e.ExternalIn != 1 {
		t.Fatalf("ExternalIn = %d", e.ExternalIn)
	}

	e.HandleServerMessage(upgradeMsg(t, pkgFrom(t, comSrcV2, comContextV2()), 2))
	// The ack only travels after quiesce + probe.
	eng.RunFor(pirte.DefaultUpgradeQuiesce + pirte.DefaultUpgradeProbe + 2*sim.Millisecond)
	if reply := lastReply(t, server); reply.Type != core.MsgAck || reply.Seq != 2 {
		t.Fatalf("reply = %+v", reply)
	}
	// The new routing is in force, the old one gone.
	before := e.ExternalIn
	e.HandleEndpointFrame("phone", "Wheels2", 9)
	if e.ExternalIn != before+1 {
		t.Fatal("new ECC message id not routed after the swap")
	}
	e.HandleEndpointFrame("phone", "Wheels", 9)
	if e.ExternalIn != before+1 {
		t.Fatal("old ECC message id still routed after the swap")
	}
	ip, _ := e.Plugin("COM")
	if got := ip.Pkg.Binary.Manifest.Version; got != "2.0" {
		t.Fatalf("running version = %s", got)
	}
}

func TestUpgradeRollbackRestoresECC(t *testing.T) {
	e, eng, server := newUpgradeECM(t)
	e.HandleServerMessage(installMsg(t, comPackage(t), "ECU1", "SW-C1", 1))

	e.HandleServerMessage(upgradeMsg(t, pkgFrom(t, comSrcBad, comContextV2()), 2))
	eng.RunFor(pirte.DefaultUpgradeQuiesce + sim.Millisecond)
	// Probation: traffic through the (temporarily) swapped ECC traps
	// the new version and triggers the rollback.
	e.HandleEndpointFrame("phone", "Wheels2", 13)
	reply := lastReply(t, server)
	if reply.Type != core.MsgNack || reply.Seq != 2 || !strings.HasPrefix(string(reply.Payload), "rollback: ") {
		t.Fatalf("reply = %+v payload %q", reply, reply.Payload)
	}
	// The old routing is restored and the old version runs.
	before := e.ExternalIn
	e.HandleEndpointFrame("phone", "Wheels", 21)
	if e.ExternalIn != before+1 {
		t.Fatal("old ECC message id not restored after rollback")
	}
	e.HandleEndpointFrame("phone", "Wheels2", 21)
	if e.ExternalIn != before+1 {
		t.Fatal("new ECC message id survived the rollback")
	}
	ip, _ := e.Plugin("COM")
	if got := ip.Pkg.Binary.Manifest.Version; got != "1.0" {
		t.Fatalf("running version after rollback = %s", got)
	}
	// A later probe deadline must not phantom-commit.
	eng.RunFor(pirte.DefaultUpgradeProbe * 2)
	if e.PIRTE.Upgrades != 0 || e.PIRTE.UpgradeRollbacks != 1 {
		t.Fatalf("counters = %d commits, %d rollbacks", e.PIRTE.Upgrades, e.PIRTE.UpgradeRollbacks)
	}
}
