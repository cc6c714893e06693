package plugin

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"dynautosar/internal/core"
	"dynautosar/internal/sim"
	"dynautosar/internal/vm"
)

// FuzzPackageUnmarshal holds the installation-package decoder, the first
// code a pushed package meets on a vehicle, to three properties for
// arbitrary bytes: Package.UnmarshalBinary never panics; a package it
// accepts re-encodes to exactly the bytes it came from; and the accepted
// program instantiates and survives one delivery per declared port at a
// budget of 1000, which puts hostile programs through the VM's register
// lowering and its exact-form fallback. The packages of
// examples/asm/*.asm seed it.
func FuzzPackageUnmarshal(f *testing.F) {
	files, err := filepath.Glob("../../examples/asm/*.asm")
	if err != nil || len(files) == 0 {
		f.Fatalf("no example programs (%v)", err)
	}
	for _, file := range files {
		src, err := os.ReadFile(file)
		if err != nil {
			f.Fatal(err)
		}
		prog, err := vm.Assemble(string(src))
		if err != nil {
			f.Fatalf("%s: %v", file, err)
		}
		bin, err := FromProgram(prog, Manifest{Developer: "fuzz"})
		if err != nil {
			f.Fatalf("%s: %v", file, err)
		}
		var ctx core.Context
		for i, d := range prog.Ports {
			id := core.PluginPortID(i)
			ctx.PIC = append(ctx.PIC, core.PICEntry{Name: d.Name, ID: id})
			ctx.PLC = append(ctx.PLC, core.PLCEntry{Kind: core.LinkNone, Plugin: id})
		}
		b, err := Package{Binary: bin, Context: ctx}.MarshalBinary()
		if err != nil {
			f.Fatalf("%s: %v", file, err)
		}
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var p Package
		if p.UnmarshalBinary(data) != nil {
			return
		}
		again, err := p.MarshalBinary()
		if err != nil {
			t.Fatalf("accepted package does not re-encode: %v", err)
		}
		if !bytes.Equal(again, data) {
			t.Fatalf("accepted package re-encodes to different bytes:\n in  %x\n out %x", data, again)
		}
		prog, err := p.Binary.Decode()
		if err != nil {
			t.Fatalf("accepted package's program does not decode: %v", err)
		}
		in, err := vm.NewInstance(prog, quietHost{}, 1000)
		if err != nil {
			t.Fatalf("accepted package's program does not instantiate: %v", err)
		}
		for port := range prog.Ports {
			_ = in.Deliver(port, int64(port)) // traps are fine, panics are not
		}
	})
}

// quietHost accepts every host call.
type quietHost struct{}

func (quietHost) PortWrite(int, int64) error { return nil }
func (quietHost) SetTimer(int, sim.Duration) {}
func (quietHost) ClearTimer(int)             {}
func (quietHost) Now() sim.Time              { return 0 }
func (quietHost) Log(string, int64)          {}
