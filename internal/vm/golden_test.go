package vm

import (
	"crypto/sha256"
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

// goldenDigest is the SHA-256 over every line TestGoldenTraces records.
// It was computed on the last commit that had a separate exact
// interpreter beside the fused loop and must never be regenerated to make
// a change pass: the equivalence tests in fuse_test.go compare two arms
// of the same commit, so only this digest sees a semantic drift both arms
// share.
const goldenDigest = "b9facb91bb3e80c7af85dad7df0a08c7bc0edb7b7a719c1692262e92cd01acfe"

// TestGoldenTraces pins, across commits, everything an activation makes
// observable — the full error string (sentinel and `at pc N (OP)`),
// Instructions, Faults, Activations, globals and the host trace — for the
// hand-written corpus and fixed-seed random programs, swept over budgets
// 1..64 plus the default, with and without a failing port write, in both
// compiled forms.
func TestGoldenTraces(t *testing.T) {
	h := sha256.New()
	record := func(label string, prog *Program, value int64) {
		exact := compileProgram(prog, false)
		for budget := 0; budget <= 64; budget++ {
			for _, failPort := range []int{-1, 1} {
				for _, form := range []*form{nil, exact} {
					host := newTraceHost()
					host.failPort = failPort
					inst, err := NewInstance(prog, host, budget)
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					if form != nil {
						inst.comp = form
					}
					err = inst.Deliver(0, value)
					fmt.Fprintf(h, "%s v=%d b=%d f=%d exact=%t err=%v ins=%d faults=%d act=%d g=%v ev=%q\n",
						label, value, budget, failPort, form != nil, err,
						inst.Instructions, inst.Faults, inst.Activations, inst.ExportGlobals(), host.events)
				}
			}
		}
	}

	names := make([]string, 0, len(fusionSources))
	for name := range fusionSources {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		prog := mustAssemble(t, fusionSources[name])
		for _, value := range []int64{0, 1, 7, 1000, -3} {
			record(name, prog, value)
		}
	}

	// The seed is fixed, not testSeed: the digest belongs to these programs.
	// Each ends in RET so none runs past its code, which the commit the
	// digest was taken on could not survive.
	r := rand.New(rand.NewSource(7))
	for iter := 0; iter < 300; iter++ {
		data := make([]byte, 2+2*(8+r.Intn(40)))
		r.Read(data)
		data = append(data, byte(OpRet), 0)
		prog, value, _ := programFromBytes(data)
		record(fmt.Sprintf("rand-%d", iter), prog, value)
	}

	if got := fmt.Sprintf("%x", h.Sum(nil)); got != goldenDigest {
		t.Fatalf("golden digest %s, want %s", got, goldenDigest)
	}
}
