// Command perfgate gates a fresh cmd/fleetsim report against the
// committed baseline (BENCH_FLEET.json at the repo root):
//
//	perfgate -baseline BENCH_FLEET.json -new fleet-new.json
//
// Both reports come from fleetsim built with GOEXPERIMENT=synctest, so
// the run replays from its seed on any runner and the gate compares
// exactly: scenario, seed, fleet size and window, every counter,
// installed count, latency stat, throughput and statz field must be
// equal (fleetsim.Diff names the one statz field left out, and why). A
// report carrying an invariant violation is no baseline and fails too.
// Exit status 1 means the gate failed.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"dynautosar/internal/fleetsim"
)

func main() {
	basePath := flag.String("baseline", "BENCH_FLEET.json", "baseline fleet report")
	newPath := flag.String("new", "fleet-new.json", "fresh fleet report")
	flag.Parse()
	fails := gate(readFleet(*basePath), readFleet(*newPath))
	for _, f := range fails {
		fmt.Println("FAIL  " + f)
	}
	if len(fails) > 0 {
		os.Exit(1)
	}
	fmt.Println("perfgate: fleet gate passed")
}

// gate lists every reason the fresh report fails against the baseline.
func gate(base, fresh fleetsim.Report) []string {
	var fails []string
	for _, r := range []struct {
		label string
		rep   fleetsim.Report
	}{{"baseline", base}, {"new", fresh}} {
		if n := len(r.rep.Violations); n > 0 {
			fails = append(fails, fmt.Sprintf("%s report carries %d invariant violations (seed %d): not gateable", r.label, n, r.rep.Seed))
		}
	}
	return append(fails, fleetsim.Diff(base, fresh)...)
}

func readFleet(path string) fleetsim.Report {
	var rep fleetsim.Report
	blob, err := os.ReadFile(path)
	if err == nil {
		err = json.Unmarshal(blob, &rep)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfgate: %s: %v\n", path, err)
		os.Exit(1)
	}
	return rep
}
