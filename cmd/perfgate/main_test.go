package main

import (
	"strings"
	"testing"

	"dynautosar/internal/api"
	"dynautosar/internal/fleetsim"
)

func report() fleetsim.Report {
	return fleetsim.Report{
		Scenario: "soak", Seed: 1, Vehicles: 500, VirtualSeconds: 30, WallSeconds: 7.5,
		Counters:   map[string]uint64{"acks": 3052, "opsSettled": 37},
		Throughput: map[string]float64{"acks": 406.9},
		Latency:    map[string]fleetsim.LatencyStats{"deploy": {Count: 500, P50: 1.25, P99: 4}},
		Installed:  map[string]int{"FleetApp-v1": 500},
		Statz:      &api.Statz{OpsCreated: 37, JournalCommits: 640},
	}
}

func TestGate(t *testing.T) {
	for _, tc := range []struct {
		name  string
		edit  func(r *fleetsim.Report)
		fails []string // substrings, one per expected failure line
	}{
		{name: "identical reports pass", edit: func(*fleetsim.Report) {}},
		{name: "a counter off by one fails and names its key",
			edit:  func(r *fleetsim.Report) { r.Counters["acks"]++ },
			fails: []string{"counters.acks: 3052 -> 3053"}},
		{name: "a latency stat off fails",
			edit: func(r *fleetsim.Report) {
				r.Latency["deploy"] = fleetsim.LatencyStats{Count: 500, P50: 1.25, P99: 4.001}
			},
			fails: []string{"latency.deploy.p99Ms: 4 -> 4.001"}},
		{name: "a key missing from the fresh run fails",
			edit:  func(r *fleetsim.Report) { delete(r.Installed, "FleetApp-v1") },
			fails: []string{"installedVehicles.FleetApp-v1: 500 -> absent"}},
		{name: "a different seed fails", edit: func(r *fleetsim.Report) { r.Seed = 2 },
			fails: []string{"seed: 1 -> 2"}},
		{name: "a journalCommits-only difference passes",
			edit: func(r *fleetsim.Report) { r.Statz.JournalCommits = 655 }},
		{name: "a report with a violation fails",
			edit:  func(r *fleetsim.Report) { r.Violations = []string{"vehicle V lost its install"} },
			fails: []string{"new report carries 1 invariant violations", `violations: absent -> ["vehicle V lost its install"]`}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fresh := report()
			tc.edit(&fresh)
			got := gate(report(), fresh)
			if len(got) != len(tc.fails) {
				t.Fatalf("gate = %q, want %d failures", got, len(tc.fails))
			}
			for i, want := range tc.fails {
				if !strings.Contains(got[i], want) {
					t.Errorf("failure %d = %q, want it to name %q", i, got[i], want)
				}
			}
		})
	}
}
