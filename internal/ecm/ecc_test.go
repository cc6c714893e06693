package ecm

import (
	"fmt"
	"strings"
	"testing"

	"dynautosar/internal/core"
	"dynautosar/internal/pirte"
	"dynautosar/internal/sim"
)

// Every ECC change is staged by its frame and resolved by that frame's
// own ack or nack. These pin the two ways the registry used to drift
// from the installed population.

// counterSrc runs three instructions per message on its In port.
const counterSrc = `
.plugin %s 1.0
.port In required
.globals 1
on_message In:
	ARG
	STG 0
	RET
`

// TestNackedInstallKeepsNoECC: a plug-in whose install is refused must
// not leave its ECC behind, or a later plug-in that gets the same port
// id receives the refused plug-in's external traffic.
func TestNackedInstallKeepsNoECC(t *testing.T) {
	e, _, server, _ := newECM(t)
	ghost := pkgFrom(t, fmt.Sprintf(counterSrc, "Ghost"), core.Context{
		PIC: core.PIC{{Name: "In", ID: 5}},
		PLC: core.PLC{{Kind: core.LinkVirtual, Plugin: 5, Virtual: 9}}, // no V9 on SW-C1
		ECC: core.ECC{{Endpoint: "111.22.33.44:56789", ECU: "ECU1", MessageID: "Wheels", Port: 5}},
	})
	e.HandleServerMessage(installMsg(t, ghost, "ECU1", "SW-C1", 1))
	if reply := lastReply(t, server); reply.Type != core.MsgNack || reply.Seq != 1 {
		t.Fatalf("reply to the ghost install = %+v", reply)
	}

	heir := pkgFrom(t, fmt.Sprintf(counterSrc, "Heir"), core.Context{
		PIC: core.PIC{{Name: "In", ID: 5}},
		PLC: core.PLC{{Kind: core.LinkNone, Plugin: 5}},
	})
	e.HandleServerMessage(installMsg(t, heir, "ECU1", "SW-C1", 2))
	if reply := lastReply(t, server); reply.Type != core.MsgAck || reply.Seq != 2 {
		t.Fatalf("reply to the heir install = %+v", reply)
	}
	ip, _ := e.Plugin("Heir")
	_, before, _ := ip.Stats()
	e.HandleEndpointFrame("111.22.33.44:56789", "Wheels", 7)
	if _, after, _ := ip.Stats(); after != before {
		t.Fatalf("%d VM instructions ran in Heir for the refused plug-in's ECC", after-before)
	}
	if _, _, ok := e.lookupByPort("ECU1", 5); ok {
		t.Fatal("the refused install's ECC is still registered")
	}
}

// TestRefusedUninstallKeepsECC: an uninstall the PIRTE refuses while an
// upgrade is in flight leaves the plug-in installed, so its ECC must
// keep routing — through the upgrade's commit.
func TestRefusedUninstallKeepsECC(t *testing.T) {
	e, eng, server := newUpgradeECM(t)
	e.HandleServerMessage(installMsg(t, comPackage(t), "ECU1", "SW-C1", 1))
	e.HandleServerMessage(upgradeMsg(t, pkgFrom(t, comSrcV2, comContextV2()), 2))
	e.HandleServerMessage(core.Message{Type: core.MsgUninstall, Plugin: "COM", ECU: "ECU1", SWC: "SW-C1", Seq: 3})
	reply := lastReply(t, server)
	if reply.Type != core.MsgNack || reply.Seq != 3 || !strings.Contains(string(reply.Payload), "upgrade already in progress") {
		t.Fatalf("reply to the uninstall = %+v payload %q", reply, reply.Payload)
	}
	if _, ok := e.Plugin("COM"); !ok {
		t.Fatal("COM gone after a refused uninstall")
	}
	routes := func(when string) {
		t.Helper()
		before := e.ExternalIn
		e.HandleEndpointFrame("phone", "Wheels2", 1)
		if e.ExternalIn != before+1 {
			t.Fatalf("COM's ECC does not route %s", when)
		}
	}
	routes("after the refused uninstall")
	eng.RunFor(pirte.DefaultUpgradeQuiesce + pirte.DefaultUpgradeProbe + 2*sim.Millisecond)
	if reply := lastReply(t, server); reply.Type != core.MsgAck || reply.Seq != 2 {
		t.Fatalf("reply to the upgrade = %+v", reply)
	}
	routes("after the upgrade committed")
}
