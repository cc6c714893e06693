//go:build goexperiment.synctest

package fleetsim

import (
	"strings"
	"testing"
	"testing/synctest"

	"dynautosar/internal/sim"
)

// TestBubbleRepeatable is the replay contract cmd/perfgate rests on:
// inside a synctest bubble time moves only when every goroutine of the
// run is blocked, so the same preset and seed give the same report,
// field for field, save the one field Diff leaves out. Build with
// GOEXPERIMENT=synctest to run it.
func TestBubbleRepeatable(t *testing.T) {
	for _, tc := range []struct {
		preset   string
		vehicles int
		window   sim.Duration
	}{
		{"soak", 300, 12 * sim.Second},
		{"churn", 0, 0},
		{"rollout", 0, 0},
	} {
		t.Run(tc.preset, func(t *testing.T) {
			var reps [2]Report
			for i := range reps {
				sc, err := Preset(tc.preset, tc.vehicles, 1, tc.window)
				if err != nil {
					t.Fatal(err)
				}
				var res *Result
				synctest.Run(func() { res, err = Run(sc, nil) })
				if err != nil {
					t.Fatal(err)
				}
				requireClean(t, res, sc.Seed)
				reps[i] = res.Report
			}
			if d := Diff(reps[0], reps[1]); len(d) > 0 {
				t.Fatalf("%s seed 1: two bubble runs differ:\n  %s", tc.preset, strings.Join(d, "\n  "))
			}
		})
	}
}
