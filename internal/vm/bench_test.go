package vm_test

import (
	"os"
	"testing"

	"dynautosar/internal/sim"
	"dynautosar/internal/vm"
	"dynautosar/internal/vm/dataflow"
)

// BenchmarkActivation times one Deliver on a long-lived instance — the
// hot path of every plug-in message — for the three handler shapes the
// data plane runs: the optimized sum loop of examples/asm/sumloop.asm
// (1000 iterations, the plugin_compute workload's loop), the echo handler
// of the communicator plug-in, and the lifecycle workload's counter.
// Compare two commits with alternating runs of their `go test -c`
// binaries:
//
//	go test -c -o vm.test ./internal/vm
//	./vm.test -test.run '^$' -test.bench Activation -test.count 5
func BenchmarkActivation(b *testing.B) {
	sum := assembleFile(b, "../../examples/asm/sumloop.asm")
	sum, _ = dataflow.Optimize(sum)
	cases := []struct {
		name  string
		prog  *vm.Program
		value int64
	}{
		{"sumloop", sum, 1000},
		{"echo", assembleFile(b, "../../examples/asm/com.asm"), 42},
		{"counter", assemble(b, `
.plugin Counter 1.0
.port Poke required
.port Report provided
.globals 1
on_message Poke:
	LDG 0
	PUSH 1
	ADD
	STG 0
	LDG 0
	PUSH 10
	MUL
	PWR Report
	RET
`), 1},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			in, err := vm.NewInstance(c.prog, nopHost{}, 0)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := in.Deliver(0, c.value); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(in.Instructions)/float64(in.Activations), "instr/op")
		})
	}
}

func assembleFile(b *testing.B, path string) *vm.Program {
	src, err := os.ReadFile(path)
	if err != nil {
		b.Fatal(err)
	}
	return assemble(b, string(src))
}

func assemble(b *testing.B, src string) *vm.Program {
	prog, err := vm.Assemble(src)
	if err != nil {
		b.Fatal(err)
	}
	return prog
}

// nopHost accepts every host call and records nothing.
type nopHost struct{}

func (nopHost) PortWrite(int, int64) error { return nil }
func (nopHost) SetTimer(int, sim.Duration) {}
func (nopHost) ClearTimer(int)             {}
func (nopHost) Now() sim.Time              { return 0 }
func (nopHost) Log(string, int64)          {}
