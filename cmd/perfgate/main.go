// Command perfgate gates a fresh cmd/fleetsim report against the
// committed baseline (BENCH_FLEET.json at the repo root):
//
//	perfgate -baseline BENCH_FLEET.json -new fleet-new.json
//
// Fleet latency percentiles fold in goroutine scheduling across
// thousands of simulated vehicles, so each p99 may regress by budget,
// and a regression under floorMS never fails. The latency rule binds
// only when both runs share the GOOS/GOARCH/CPU-count shape; otherwise
// it reports and moves on. Invariant violations in either report always
// fail: a chaos run that broke an invariant is not a baseline. Exit
// status 1 means the gate failed.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"maps"
	"os"
	"slices"

	"dynautosar/internal/fleetsim"
)

const (
	budget  = 0.5 // allowed fractional p99 regression per latency key
	floorMS = 5.0 // p99 regressions under this many ms never fail
)

func main() {
	basePath := flag.String("baseline", "BENCH_FLEET.json", "baseline fleet report")
	newPath := flag.String("new", "", "fresh fleet report")
	flag.Parse()
	if *newPath == "" {
		fmt.Fprintln(os.Stderr, "perfgate: -new is required")
		os.Exit(2)
	}

	base := readFleet(*basePath)
	fresh := readFleet(*newPath)

	failed := false
	fail := func(format string, args ...any) {
		failed = true
		fmt.Printf("FAIL  "+format+"\n", args...)
	}

	for _, r := range []struct {
		label string
		rep   *fleetsim.Report
	}{{"baseline", base}, {"new", fresh}} {
		if n := len(r.rep.Violations); n > 0 {
			fail("%s report carries %d invariant violations (seed %d) — not gateable", r.label, n, r.rep.Seed)
		}
	}

	if base.Scenario != fresh.Scenario || base.Vehicles != fresh.Vehicles {
		fail("scenario shape mismatch: baseline %s/%d vehicles vs new %s/%d",
			base.Scenario, base.Vehicles, fresh.Scenario, fresh.Vehicles)
	}

	comparable := base.GOOS == fresh.GOOS && base.GOARCH == fresh.GOARCH && base.CPUs == fresh.CPUs
	if !comparable {
		fmt.Printf("perfgate: baseline env %s/%s/%d cpus != current %s/%s/%d; latency is informational\n",
			base.GOOS, base.GOARCH, base.CPUs, fresh.GOOS, fresh.GOARCH, fresh.CPUs)
	}

	for _, k := range slices.Sorted(maps.Keys(base.Latency)) {
		b, n := base.Latency[k], fresh.Latency[k]
		if b.Count == 0 {
			continue // baseline never measured this key
		}
		if n.Count == 0 {
			fail("%s: no samples in the fresh run (baseline had %d)", k, b.Count)
			continue
		}
		verdict := "ok  "
		over := n.P99 > b.P99*(1+budget) && n.P99-b.P99 > floorMS
		if over {
			if comparable {
				fail("%s: p99 regressed %.1fms -> %.1fms (budget %.0f%%, floor %.1fms)",
					k, b.P99, n.P99, budget*100, floorMS)
				continue
			}
			verdict = "warn"
		}
		fmt.Printf("%s  %-10s p99 %8.1fms -> %8.1fms  (p50 %.1f -> %.1f, n=%d)\n",
			verdict, k, b.P99, n.P99, b.P50, n.P50, n.Count)
	}
	if failed {
		os.Exit(1)
	}
	fmt.Println("perfgate: fleet gate passed")
}

func readFleet(path string) *fleetsim.Report {
	blob, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfgate: %v\n", err)
		os.Exit(1)
	}
	var rep fleetsim.Report
	if err := json.Unmarshal(blob, &rep); err != nil {
		fmt.Fprintf(os.Stderr, "perfgate: %s: %v\n", path, err)
		os.Exit(1)
	}
	return &rep
}
