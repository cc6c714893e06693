package plugin

import (
	"bytes"
	"strings"
	"testing"

	"dynautosar/internal/core"
	"dynautosar/internal/vm"
)

const opSrc = `
.plugin OP 1.0
.port WheelsIn required
.port SpeedIn required
.port WheelsOut provided
.port SpeedOut provided
.globals 2
on_message WheelsIn:
	ARG
	PWR WheelsOut
	RET
on_message SpeedIn:
	ARG
	PWR SpeedOut
	RET
`

func testBinary(t *testing.T) Binary {
	t.Helper()
	prog, err := vm.Assemble(opSrc)
	if err != nil {
		t.Fatal(err)
	}
	b, err := FromProgram(prog, Manifest{Developer: "sics", Description: "operator"})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func testContext() core.Context {
	return core.Context{
		PIC: core.PIC{
			{Name: "WheelsIn", ID: 0},
			{Name: "SpeedIn", ID: 1},
			{Name: "WheelsOut", ID: 2},
			{Name: "SpeedOut", ID: 3},
		},
		PLC: mustPLC("{P0-V3, P1-V3, P2-V4, P3-V5}"),
	}
}

func mustPLC(s string) core.PLC {
	plc, err := core.ParsePLC(s)
	if err != nil {
		panic(err)
	}
	return plc
}

func TestFromProgramDerivesManifest(t *testing.T) {
	b := testBinary(t)
	m := b.Manifest
	if m.Name != "OP" || m.Version != "1.0" {
		t.Fatalf("manifest identity = %s %s", m.Name, m.Version)
	}
	if len(m.Ports) != 4 || m.Ports[0].Name != "WheelsIn" || m.Ports[0].Direction != core.Required {
		t.Fatalf("ports = %+v", m.Ports)
	}
	if m.MemoryWords != 2 {
		t.Fatalf("memory = %d", m.MemoryWords)
	}
	if _, err := b.Decode(); err != nil {
		t.Fatal(err)
	}
}

func TestManifestValidate(t *testing.T) {
	good := Manifest{Name: "X", Ports: []core.PluginPortSpec{{Name: "p", Direction: core.Required}}}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	cases := []Manifest{
		{},
		{Name: "X", MemoryWords: -1},
		{Name: "X", Ports: []core.PluginPortSpec{{Name: ""}}},
		{Name: "X", Ports: []core.PluginPortSpec{{Name: "p", Direction: 9}}},
		{Name: "X", Ports: []core.PluginPortSpec{{Name: "p", Direction: core.Required}, {Name: "p", Direction: core.Required}}},
		{Name: "X", Requires: []core.PluginName{"X"}},
		{Name: "X", Conflicts: []core.PluginName{"X"}},
	}
	for i, m := range cases {
		if err := m.Validate(); err == nil {
			t.Errorf("case %d accepted: %+v", i, m)
		}
	}
}

func TestBinaryValidateCatchesTampering(t *testing.T) {
	b := testBinary(t)
	b.Manifest.Ports = b.Manifest.Ports[:3]
	if err := b.Validate(); err == nil || !strings.Contains(err.Error(), "ports") {
		t.Fatalf("port count tamper: %v", err)
	}
	b = testBinary(t)
	b.Manifest.Ports[0].Direction = core.Provided
	if err := b.Validate(); err == nil {
		t.Fatal("direction tamper accepted")
	}
	b = testBinary(t)
	b.Manifest.MemoryWords = 99
	if err := b.Validate(); err == nil {
		t.Fatal("memory tamper accepted")
	}
	b = testBinary(t)
	b.Program[len(b.Program)-1] ^= 0xFF
	if err := b.Validate(); err == nil {
		t.Fatal("program corruption accepted")
	}
}

func TestPackageValidate(t *testing.T) {
	pkg := Package{Binary: testBinary(t), Context: testContext()}
	if err := pkg.Validate(); err != nil {
		t.Fatal(err)
	}
	// Missing PIC entry.
	bad := pkg
	bad.Context.PIC = bad.Context.PIC[:3]
	bad.Context.PLC = nil
	if err := bad.Validate(); err == nil {
		t.Fatal("incomplete PIC accepted")
	}
	// External without ECC.
	ext := pkg
	ext.Binary.Manifest.External = true
	if err := ext.Validate(); err == nil {
		t.Fatal("external without ECC accepted")
	}
	ext.Context.ECC = core.ECC{{Endpoint: "1.2.3.4:5", ECU: "ECU1", MessageID: "m", Port: 0}}
	if err := ext.Validate(); err != nil {
		t.Fatalf("external with ECC rejected: %v", err)
	}
}

func TestPackageWireRoundTrip(t *testing.T) {
	pkg := Package{Binary: testBinary(t), Context: testContext()}
	b, err := pkg.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var back Package
	if err := back.UnmarshalBinary(b); err != nil {
		t.Fatal(err)
	}
	if back.Binary.Manifest.Name != "OP" {
		t.Fatalf("name = %s", back.Binary.Manifest.Name)
	}
	if back.Context.PLC.String() != "{P0-V3, P1-V3, P2-V4, P3-V5}" {
		t.Fatalf("PLC = %s", back.Context.PLC)
	}
	if len(back.Binary.Program) != len(pkg.Binary.Program) {
		t.Fatal("program length changed")
	}
	// Garbage rejected.
	if err := back.UnmarshalBinary([]byte{1, 2, 3}); err == nil {
		t.Fatal("garbage accepted")
	}
	if err := back.UnmarshalBinary(append(b, 0)); err == nil {
		t.Fatal("trailing bytes accepted")
	}
	// The manifest's last byte is the external flag: only 0 and 1 decode,
	// so an accepted package re-encodes to its own bytes.
	e := core.NewEnc(64)
	encodeManifest(e, pkg.Binary.Manifest)
	flagged := append([]byte(nil), b...)
	flagged[len(e.Bytes())-1] = 2
	if err := back.UnmarshalBinary(flagged); err == nil {
		t.Fatal("external flag 2 accepted")
	}
}

func TestManifestDependencyFieldsSurviveWire(t *testing.T) {
	bin := testBinary(t)
	bin.Manifest.Requires = []core.PluginName{"COM"}
	bin.Manifest.Conflicts = []core.PluginName{"LegacyOP"}
	bin.Manifest.Budget = 5000
	pkg := Package{Binary: bin, Context: testContext()}
	raw, err := pkg.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var back Package
	if err := back.UnmarshalBinary(raw); err != nil {
		t.Fatal(err)
	}
	m := back.Binary.Manifest
	if len(m.Requires) != 1 || m.Requires[0] != "COM" {
		t.Fatalf("requires = %v", m.Requires)
	}
	if len(m.Conflicts) != 1 || m.Conflicts[0] != "LegacyOP" {
		t.Fatalf("conflicts = %v", m.Conflicts)
	}
	if m.Budget != 5000 || m.Developer != "sics" {
		t.Fatalf("budget/developer = %d %q", m.Budget, m.Developer)
	}
}

// A decoded package reuses the program its decode checked until
// Binary.Program is replaced; from then on the replacement is what gets
// decoded, validated and encoded.
func TestReplacedProgramDropsKeptDecode(t *testing.T) {
	raw, err := Package{Binary: testBinary(t), Context: testContext()}.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var pkg Package
	if err := pkg.UnmarshalBinary(raw); err != nil {
		t.Fatal(err)
	}
	kept, err := pkg.Decode()
	if err != nil {
		t.Fatal(err)
	}
	if again, _ := pkg.Decode(); again != kept {
		t.Fatal("Decode decoded the program again")
	}
	if wire, _ := pkg.Wire(); !bytes.Equal(wire, raw) {
		t.Fatal("Wire is not the decoded bytes")
	}
	corrupt := append([]byte(nil), pkg.Binary.Program...)
	corrupt[len(corrupt)-1] ^= 0xFF
	pkg.Binary.Program = corrupt
	if _, err := pkg.Decode(); err == nil {
		t.Fatal("package with a corrupt replacement program decodes")
	}
	if _, err := pkg.Wire(); err == nil {
		t.Fatal("package with a corrupt replacement program encodes")
	}
	corrupt[len(corrupt)-1] ^= 0xFF
	if prog, err := pkg.Decode(); err != nil || prog == kept {
		t.Fatalf("repaired replacement: fresh decode %v, err %v", prog != kept, err)
	}
}
