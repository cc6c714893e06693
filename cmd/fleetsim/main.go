// Command fleetsim runs one fleet-scale chaos scenario against an
// in-process trusted server and writes the measurement report as JSON
// (the BENCH_FLEET.json shape cmd/perfgate gates).
//
//	fleetsim [-scenario soak|churn|storm] [-vehicles N] [-seed N]
//	         [-duration seconds] [-speedup N] [-out BENCH_FLEET.json]
//
// The scenario presets live in internal/fleetsim; -vehicles, -seed and
// -duration override a preset's defaults. The seed fully determines the
// fault and workload schedule, so a reported failure replays exactly.
// Exit status 1 means the run finished with invariant violations.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"dynautosar/internal/fleetsim"
	"dynautosar/internal/sim"
)

func main() {
	log.SetFlags(0)
	scenario := flag.String("scenario", "soak", "scenario preset: "+strings.Join(fleetsim.Presets(), "|"))
	vehicles := flag.Int("vehicles", 0, "fleet size (0 = preset default)")
	seed := flag.Int64("seed", 1, "scenario seed; the whole fault schedule replays from it")
	duration := flag.Float64("duration", 0, "virtual scenario window in seconds (0 = preset default)")
	speedup := flag.Int("speedup", 0, "virtual microseconds per real microsecond (0 = preset default, negative = unpaced)")
	out := flag.String("out", "BENCH_FLEET.json", "report output path (\"-\" for stdout)")
	quiet := flag.Bool("q", false, "suppress the per-event run log")
	flag.Parse()

	sc, err := fleetsim.Preset(*scenario, *vehicles, *seed, sim.Duration(*duration*float64(sim.Second)))
	if err != nil {
		log.Fatalf("fleetsim: %v", err)
	}
	if *speedup != 0 {
		sc.Speedup = *speedup
	}
	logf := log.Printf
	if *quiet {
		logf = nil
	}
	res, err := fleetsim.Run(sc, logf)
	if err != nil {
		log.Fatalf("fleetsim: %v", err)
	}

	blob, err := json.MarshalIndent(res.Report, "", "  ")
	if err != nil {
		log.Fatalf("fleetsim: %v", err)
	}
	blob = append(blob, '\n')
	if *out == "-" {
		os.Stdout.Write(blob)
	} else if err := os.WriteFile(*out, blob, 0o644); err != nil {
		log.Fatalf("fleetsim: %v", err)
	} else {
		log.Printf("fleetsim: wrote report to %s", *out)
	}

	rep := res.Report
	log.Printf("fleetsim: %s seed=%d vehicles=%d: %.1fs virtual in %.1fs wall, %d ops settled, %.0f acks/s, deploy p99 %.1fms",
		rep.Scenario, rep.Seed, rep.Vehicles, rep.VirtualSeconds, rep.WallSeconds,
		rep.Counters["opsSettled"], rep.Throughput["acks"], rep.Latency["deploy"].P99)
	if n := len(res.Violations); n > 0 {
		fmt.Fprintf(os.Stderr, "fleetsim: %d INVARIANT VIOLATIONS (seed %d):\n  %s\n",
			n, rep.Seed, strings.Join(res.Violations, "\n  "))
		os.Exit(1)
	}
}
