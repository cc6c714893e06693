package ecm

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"

	"dynautosar/internal/core"
	"dynautosar/internal/pirte"
	"dynautosar/internal/plugin"
	"dynautosar/internal/sim"
	"dynautosar/internal/vm"
)

// FuzzServerFrame puts hostile programs behind a valid package CRC —
// where FuzzPackageUnmarshal's corrupted bytes never get — through the
// ECM's life-cycle path. The fuzz bytes are decoded as a program; one
// that decodes is sealed into a package with a fixed context (every port
// PIRTE-direct and named by an ECC entry) and sent to a standalone ECM
// as an install frame, then as an upgrade frame, each followed by one
// external message per port. It requires no panic, exactly one reply per
// frame carrying the frame's seq, and ECC records only for installed
// plug-ins. The programs of examples/asm/*.asm seed it.
func FuzzServerFrame(f *testing.F) {
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
		raw, err := vm.EncodeProgram(prog)
		if err != nil {
			f.Fatalf("%s: %v", file, err)
		}
		f.Add(raw)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		prog, err := vm.DecodeProgram(data)
		if err != nil {
			return
		}
		var ctx core.Context
		for i, d := range prog.Ports {
			id := core.PluginPortID(i)
			ctx.PIC = append(ctx.PIC, core.PICEntry{Name: d.Name, ID: id})
			ctx.PLC = append(ctx.PLC, core.PLCEntry{Kind: core.LinkNone, Plugin: id})
			ctx.ECC = append(ctx.ECC, core.ECCEntry{Endpoint: "fuzz:1", ECU: "ECU1", MessageID: fmt.Sprintf("M%d", i), Port: id})
		}
		bin, err := plugin.FromProgram(prog, plugin.Manifest{Developer: "fuzz", External: len(ctx.ECC) > 0})
		if err != nil {
			return
		}
		pkg := plugin.Package{Binary: bin, Context: ctx}
		if pkg.Validate() != nil {
			return
		}
		raw, err := pkg.MarshalBinary()
		if err != nil {
			t.Fatalf("validated package does not encode: %v", err)
		}

		// Short windows and a small budget keep a timer-happy program's
		// event count bounded.
		eng := sim.NewEngine()
		cfg := ecmConfig()
		cfg.DefaultBudget, cfg.UpgradeQuiesce, cfg.UpgradeProbe = 1000, 100*sim.Microsecond, 100*sim.Microsecond
		p, err := pirte.New(eng, cfg)
		if err != nil {
			t.Fatal(err)
		}
		p.SetSWCWriter(func(core.SWCPortID, []byte) error { return nil })
		e := New(eng, p)
		e.SetDialer(DialerFunc(func(string) (io.ReadWriteCloser, error) { return &captureConn{}, nil }))
		server := &captureConn{}
		if err := e.ConnectServer(server, "VIN-FUZZ"); err != nil {
			t.Fatal(err)
		}

		name := bin.Manifest.Name
		for seq, typ := range []core.MsgType{core.MsgInstall, core.MsgUpgrade} {
			e.HandleServerMessage(core.Message{Type: typ, Plugin: name, ECU: "ECU1", SWC: "SW-C1",
				Seq: uint32(seq + 1), Payload: raw})
			for _, entry := range ctx.ECC {
				e.HandleEndpointFrame("fuzz:1", entry.MessageID, int64(seq))
			}
		}
		eng.RunFor(cfg.UpgradeQuiesce + cfg.UpgradeProbe + sim.Millisecond)

		replies := map[uint32]int{}
		for _, m := range server.messages(t) {
			if m.Type == core.MsgAck || m.Type == core.MsgNack {
				replies[m.Seq]++
			}
		}
		if len(replies) != 2 || replies[1] != 1 || replies[2] != 1 {
			t.Fatalf("replies per seq = %v, want one for each of seq 1 and 2", replies)
		}
		for _, rec := range e.eccReg {
			if _, ok := e.Plugin(rec.plugin); !ok {
				t.Fatalf("ECC record of %s, which is not installed", rec.plugin)
			}
		}
	})
}
