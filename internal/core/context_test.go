package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"testing/quick"
)

// The PLC strings of the paper's section 4 example serve as parsing
// oracles.
const (
	paperPLCOP  = "{P0-V3, P1-V3, P2-V4, P3-V5}"
	paperPLCCOM = "{P0-, P1-, P2-V0.P0, P3-V0.P1}"
	paperECCCOM = "{{111.22.33.44:56789, ECU1, 'Wheels', P0}, {111.22.33.44:56789, ECU1, 'Speed', P1}}"
)

func TestParsePLCPaperOP(t *testing.T) {
	plc, err := ParsePLC(paperPLCOP)
	if err != nil {
		t.Fatalf("ParsePLC(%q): %v", paperPLCOP, err)
	}
	want := PLC{
		{Kind: LinkVirtual, Plugin: 0, Virtual: 3},
		{Kind: LinkVirtual, Plugin: 1, Virtual: 3},
		{Kind: LinkVirtual, Plugin: 2, Virtual: 4},
		{Kind: LinkVirtual, Plugin: 3, Virtual: 5},
	}
	if !reflect.DeepEqual(plc, want) {
		t.Fatalf("ParsePLC(%q) = %v, want %v", paperPLCOP, plc, want)
	}
	if got := plc.String(); got != paperPLCOP {
		t.Fatalf("String() = %q, want %q", got, paperPLCOP)
	}
}

func TestParsePLCPaperCOM(t *testing.T) {
	plc, err := ParsePLC(paperPLCCOM)
	if err != nil {
		t.Fatalf("ParsePLC(%q): %v", paperPLCCOM, err)
	}
	want := PLC{
		{Kind: LinkNone, Plugin: 0},
		{Kind: LinkNone, Plugin: 1},
		{Kind: LinkVirtualRemote, Plugin: 2, Virtual: 0, Remote: 0},
		{Kind: LinkVirtualRemote, Plugin: 3, Virtual: 0, Remote: 1},
	}
	if !reflect.DeepEqual(plc, want) {
		t.Fatalf("ParsePLC(%q) = %v, want %v", paperPLCCOM, plc, want)
	}
	if got := plc.String(); got != paperPLCCOM {
		t.Fatalf("String() = %q, want %q", got, paperPLCCOM)
	}
}

func TestParseECCPaper(t *testing.T) {
	ecc, err := ParseECC(paperECCCOM)
	if err != nil {
		t.Fatalf("ParseECC(%q): %v", paperECCCOM, err)
	}
	want := ECC{
		{Endpoint: "111.22.33.44:56789", ECU: "ECU1", MessageID: "Wheels", Port: 0},
		{Endpoint: "111.22.33.44:56789", ECU: "ECU1", MessageID: "Speed", Port: 1},
	}
	if !reflect.DeepEqual(ecc, want) {
		t.Fatalf("ParseECC = %v, want %v", ecc, want)
	}
	if got := ecc.String(); got != paperECCCOM {
		t.Fatalf("String() = %q, want %q", got, paperECCCOM)
	}
	if eps := ecc.Endpoints(); len(eps) != 1 || eps[0] != "111.22.33.44:56789" {
		t.Fatalf("Endpoints() = %v, want one shared endpoint", eps)
	}
	entry, ok := ecc.Route("Wheels")
	if !ok || entry.Port != 0 {
		t.Fatalf("Route(Wheels) = %v, %v", entry, ok)
	}
	if _, ok := ecc.Route("Horn"); ok {
		t.Fatal("Route(Horn) unexpectedly resolved")
	}
}

func TestPLCPeerLinks(t *testing.T) {
	plc, err := ParsePLC("{P0-P1, P2-}")
	if err != nil {
		t.Fatalf("ParsePLC peer: %v", err)
	}
	if plc[0].Kind != LinkPeer || plc[0].Peer != 1 {
		t.Fatalf("peer post parsed as %+v", plc[0])
	}
	if got := plc.String(); got != "{P0-P1, P2-}" {
		t.Fatalf("String() = %q", got)
	}
}

func TestPLCValidateRejectsDuplicatesAndSelfLinks(t *testing.T) {
	if _, err := ParsePLC("{P0-V1, P0-V2}"); err == nil {
		t.Fatal("duplicate post accepted")
	}
	bad := PLC{{Kind: LinkPeer, Plugin: 2, Peer: 2}}
	if err := bad.Validate(); err == nil {
		t.Fatal("self-link accepted")
	}
	worse := PLC{{Kind: LinkKind(9), Plugin: 0}}
	if err := worse.Validate(); err == nil {
		t.Fatal("invalid kind accepted")
	}
}

func TestParsePLCErrors(t *testing.T) {
	for _, s := range []string{
		"P0-V1",           // no braces
		"{P0}",            // no dash
		"{X0-V1}",         // bad port
		"{P0-W1}",         // bad target
		"{P0-V1.X2}",      // bad remote
		"{P0-V1, P1-V1.}", // empty remote
	} {
		if _, err := ParsePLC(s); err == nil {
			t.Errorf("ParsePLC(%q) unexpectedly succeeded", s)
		}
	}
}

func TestPICLookupAndValidate(t *testing.T) {
	pic := PIC{{Name: "wheels", ID: 0}, {Name: "speed", ID: 1}}
	if err := pic.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if id, ok := pic.Lookup("speed"); !ok || id != 1 {
		t.Fatalf("Lookup(speed) = %v, %v", id, ok)
	}
	if _, ok := pic.Lookup("horn"); ok {
		t.Fatal("Lookup(horn) unexpectedly resolved")
	}
	if name, ok := pic.Name(0); !ok || name != "wheels" {
		t.Fatalf("Name(0) = %q, %v", name, ok)
	}
	if got := pic.String(); got != "{wheels:P0, speed:P1}" {
		t.Fatalf("String() = %q", got)
	}
	back, err := ParsePIC(pic.String())
	if err != nil || !reflect.DeepEqual(back, pic) {
		t.Fatalf("ParsePIC round trip = %v, %v", back, err)
	}
}

func TestPICValidateRejects(t *testing.T) {
	cases := []PIC{
		{{Name: "", ID: 0}},
		{{Name: "a", ID: 0}, {Name: "a", ID: 1}},
		{{Name: "a", ID: 0}, {Name: "b", ID: 0}},
		{{Name: "a", ID: -1}},
		{{Name: "a{b", ID: 0}},
	}
	for i, pic := range cases {
		if err := pic.Validate(); err == nil {
			t.Errorf("case %d: Validate accepted %v", i, pic)
		}
	}
	// Above pairwisePIC entries duplicates are found through maps.
	large := func() PIC {
		var pic PIC
		for i := 0; i <= 2*pairwisePIC; i++ {
			pic = append(pic, PICEntry{Name: fmt.Sprint("p", i), ID: PluginPortID(i)})
		}
		return pic
	}
	if err := large().Validate(); err != nil {
		t.Fatalf("large PIC: %v", err)
	}
	dupName, dupID := large(), large()
	dupName[2*pairwisePIC].Name = "p3"
	dupID[2*pairwisePIC].ID = 3
	if err := dupName.Validate(); err == nil || !strings.Contains(err.Error(), "duplicate port name") {
		t.Errorf("large PIC with a duplicate name: %v", err)
	}
	if err := dupID.Validate(); err == nil || !strings.Contains(err.Error(), "duplicate port id") {
		t.Errorf("large PIC with a duplicate id: %v", err)
	}
}

// TestPICValidateAllocFree pins the decode-path check of an ordinary PIC
// at zero allocations.
func TestPICValidateAllocFree(t *testing.T) {
	pic := PIC{{Name: "in", ID: 0}, {Name: "out", ID: 1}, {Name: "speed", ID: 2}, {Name: "wheels", ID: 3}}
	if allocs := testing.AllocsPerRun(100, func() {
		if err := pic.Validate(); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("PIC.Validate: %v allocs per call, want 0", allocs)
	}
}

func TestContextValidateCrossReferences(t *testing.T) {
	ctx := Context{
		PIC: PIC{{Name: "in", ID: 0}},
		PLC: PLC{{Kind: LinkVirtual, Plugin: 5, Virtual: 1}},
	}
	if err := ctx.Validate(); err == nil || !strings.Contains(err.Error(), "not in the PIC") {
		t.Fatalf("dangling PLC post not rejected: %v", err)
	}
	ctx = Context{
		PIC: PIC{{Name: "in", ID: 0}},
		ECC: ECC{{Endpoint: "1.2.3.4:1", ECU: "ECU1", MessageID: "m", Port: 9}},
	}
	if err := ctx.Validate(); err == nil || !strings.Contains(err.Error(), "not in the PIC") {
		t.Fatalf("dangling ECC post not rejected: %v", err)
	}
	ctx = Context{
		PIC: PIC{{Name: "a", ID: 0}, {Name: "b", ID: 1}},
		PLC: PLC{{Kind: LinkPeer, Plugin: 0, Peer: 1}},
	}
	if err := ctx.Validate(); err != nil {
		t.Fatalf("valid context rejected: %v", err)
	}
}

func TestParseIDs(t *testing.T) {
	if id, err := ParsePluginPortID(" P12 "); err != nil || id != 12 {
		t.Fatalf("ParsePluginPortID = %v, %v", id, err)
	}
	if id, err := ParseVirtualPortID("V6"); err != nil || id != 6 {
		t.Fatalf("ParseVirtualPortID = %v, %v", id, err)
	}
	if id, err := ParseSWCPortID("S3"); err != nil || id != 3 {
		t.Fatalf("ParseSWCPortID = %v, %v", id, err)
	}
	for _, bad := range []string{"P", "Q1", "V-1", "", "P1x"} {
		if _, err := ParsePluginPortID(bad); err == nil {
			t.Errorf("ParsePluginPortID(%q) unexpectedly succeeded", bad)
		}
	}
}

func TestPortTypeAndDirectionStrings(t *testing.T) {
	if TypeI.String() != "type I" || TypeII.String() != "type II" || TypeIII.String() != "type III" {
		t.Fatal("PortType.String mismatch")
	}
	if !TypeI.Valid() || PortType(0).Valid() || PortType(4).Valid() {
		t.Fatal("PortType.Valid mismatch")
	}
	if Provided.Opposite() != Required || Required.Opposite() != Provided {
		t.Fatal("Direction.Opposite mismatch")
	}
	if Provided.String() != "provided" || Required.String() != "required" {
		t.Fatal("Direction.String mismatch")
	}
}

func TestAddressString(t *testing.T) {
	a := Address{ECU: "ECU2", SWC: "SW-C2", Port: 3}
	if got := a.String(); got != "ECU2/SW-C2:P3" {
		t.Fatalf("Address.String() = %q", got)
	}
}

// randomContext builds a random but valid context for property tests.
func randomContext(r *rand.Rand) Context {
	n := 1 + r.Intn(8)
	pic := make(PIC, 0, n)
	for i := 0; i < n; i++ {
		pic = append(pic, PICEntry{Name: "p" + string(rune('a'+i)), ID: PluginPortID(i)})
	}
	var plc PLC
	for i := 0; i < n; i++ {
		e := PLCEntry{Plugin: PluginPortID(i)}
		switch r.Intn(4) {
		case 0:
			e.Kind = LinkNone
		case 1:
			e.Kind = LinkVirtual
			e.Virtual = VirtualPortID(r.Intn(16))
		case 2:
			e.Kind = LinkVirtualRemote
			e.Virtual = VirtualPortID(r.Intn(16))
			e.Remote = PluginPortID(r.Intn(16))
		case 3:
			peer := PluginPortID((i + 1) % n)
			if peer == PluginPortID(i) {
				e.Kind = LinkNone
			} else {
				e.Kind = LinkPeer
				e.Peer = peer
			}
		}
		plc = append(plc, e)
	}
	var ecc ECC
	for i := 0; i < r.Intn(3); i++ {
		ecc = append(ecc, ECCEntry{
			Endpoint:  "10.0.0.1:99",
			ECU:       "ECU1",
			MessageID: "m" + string(rune('0'+i)),
			Port:      PluginPortID(r.Intn(n)),
		})
	}
	return Context{PIC: pic, PLC: plc, ECC: ecc}
}

func TestQuickContextTextRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		ctx := randomContext(rand.New(rand.NewSource(seed)))
		plc, err := ParsePLC(ctx.PLC.String())
		if err != nil || !reflect.DeepEqual(plc, ctx.PLC) {
			t.Logf("PLC %v -> %v (%v)", ctx.PLC, plc, err)
			return false
		}
		pic, err := ParsePIC(ctx.PIC.String())
		if err != nil || !reflect.DeepEqual(pic, ctx.PIC) {
			t.Logf("PIC %v -> %v (%v)", ctx.PIC, pic, err)
			return false
		}
		if len(ctx.ECC) > 0 {
			ecc, err := ParseECC(ctx.ECC.String())
			if err != nil || !reflect.DeepEqual(ecc, ctx.ECC) {
				t.Logf("ECC %v -> %v (%v)", ctx.ECC, ecc, err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickContextBinaryRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		ctx := randomContext(rand.New(rand.NewSource(seed)))
		b, err := ctx.MarshalBinary()
		if err != nil {
			t.Logf("marshal %v: %v", ctx, err)
			return false
		}
		var back Context
		if err := back.UnmarshalBinary(b); err != nil {
			t.Logf("unmarshal: %v", err)
			return false
		}
		// Empty slices normalise to nil on decode for empty contexts.
		if len(ctx.ECC) == 0 {
			ctx.ECC = back.ECC
		}
		return reflect.DeepEqual(ctx, back)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestContextUnmarshalRejectsGarbage(t *testing.T) {
	var ctx Context
	// The three bytes claim 65535 PIC entries: nothing may be sized by
	// the claim.
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err := ctx.UnmarshalBinary([]byte{0xff, 0xff, 0xff})
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("garbage accepted")
	}
	if n := after.TotalAlloc - before.TotalAlloc; n > 64<<10 {
		t.Errorf("decoding 3 bytes allocated %d bytes", n)
	}
	good, err := Context{PIC: PIC{{Name: "a", ID: 0}}}.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if err := ctx.UnmarshalBinary(append(good, 0)); err == nil {
		t.Fatal("trailing bytes accepted")
	}
}
