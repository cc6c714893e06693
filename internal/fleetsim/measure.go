package fleetsim

import (
	"context"
	"math"
	"runtime"
	"sort"
	"time"

	"dynautosar/internal/api"
	"dynautosar/internal/sim"
)

// metrics accumulates the run's counters and latency samples. All
// writes happen on the pump goroutine.
type metrics struct {
	launched, settled, lostOps int
	launchesSkipped            int
	faults, serverCrashes      int
	corrupted                  uint64
	probeNacks                 uint64
	recoveredRecords           int
	interruptedOps             int

	rolloutsSettled    int
	rolloutsRolledBack int
	rolloutsLost       int
	wavesPromoted      int

	deploy, upgrade, uninstall, rollout, ackRTT hist
}

func (m *metrics) lat(metric string) *hist {
	switch metric {
	case "upgrade":
		return &m.upgrade
	case "uninstall":
		return &m.uninstall
	case "rollout":
		return &m.rollout
	default:
		return &m.deploy
	}
}

// hist keeps raw samples in milliseconds; fleets are small enough that
// exact percentiles beat bucketing.
type hist struct {
	samples []float64
	max     float64
}

// histCap bounds sample memory (~1.6MB per histogram at the cap).
const histCap = 200_000

func (h *hist) record(d time.Duration) {
	ms := float64(d) / float64(time.Millisecond)
	if ms > h.max {
		h.max = ms
	}
	if len(h.samples) < histCap {
		h.samples = append(h.samples, ms)
	}
}

// LatencyStats summarizes one latency distribution in milliseconds.
type LatencyStats struct {
	Count int     `json:"count"`
	P50   float64 `json:"p50Ms"`
	P95   float64 `json:"p95Ms"`
	P99   float64 `json:"p99Ms"`
	Max   float64 `json:"maxMs"`
}

func (h *hist) stats() LatencyStats {
	if len(h.samples) == 0 {
		return LatencyStats{}
	}
	s := append([]float64(nil), h.samples...)
	sort.Float64s(s)
	pick := func(q float64) float64 {
		rank := int(math.Ceil(q*float64(len(s)))) - 1
		return s[min(max(rank, 0), len(s)-1)]
	}
	return LatencyStats{Count: len(s), P50: pick(0.50), P95: pick(0.95), P99: pick(0.99), Max: h.max}
}

// Report is the BENCH_FLEET.json shape: one scenario run's
// environment, counters, throughput and latency percentiles, plus the
// server's own /v1/statz counters for cross-checking.
type Report struct {
	Scenario       string  `json:"scenario"`
	Seed           int64   `json:"seed"`
	Vehicles       int     `json:"vehicles"`
	VirtualSeconds float64 `json:"virtualSeconds"`
	WallSeconds    float64 `json:"wallSeconds"`

	GOOS   string `json:"goos"`
	GOARCH string `json:"goarch"`
	CPUs   int    `json:"cpus"`

	Counters   map[string]uint64       `json:"counters"`
	Throughput map[string]float64      `json:"throughputPerSec"`
	Latency    map[string]LatencyStats `json:"latency"`

	// Installed counts, per app, the vehicles holding an installed row
	// at the end of the run — the convergence observable rollout tests
	// assert all-old/all-new on.
	Installed map[string]int `json:"installedVehicles,omitempty"`

	Statz *api.Statz `json:"statz,omitempty"`

	Violations []string `json:"violations,omitempty"`
}

// report assembles the final Report; called once the pump has drained.
func (f *Fleet) report() Report {
	wall := time.Since(f.start).Seconds()
	if wall <= 0 {
		wall = 1e-9
	}
	var connects, acks, nacks uint64
	reconnected := 0
	for _, v := range f.vehicles {
		connects += v.connects
		acks += v.acks
		nacks += v.nacks
		if v.connects > 1 {
			reconnected++
		}
	}
	rep := Report{
		Scenario:       f.sc.Name,
		Seed:           f.sc.Seed,
		Vehicles:       f.sc.Vehicles,
		VirtualSeconds: float64(f.eng.Now()) / float64(sim.Second),
		WallSeconds:    wall,
		GOOS:           runtime.GOOS,
		GOARCH:         runtime.GOARCH,
		CPUs:           runtime.NumCPU(),
		Counters: map[string]uint64{
			"connects":         connects,
			"reconnects":       connects - uint64(len(f.vehicles)),
			"vehiclesRedialed": uint64(reconnected),
			"acks":             acks,
			"nacks":            nacks,
			"corruptedFrames":  f.m.corrupted,
			"probeNacks":       f.m.probeNacks,
			"opsLaunched":      uint64(f.m.launched),
			"opsSettled":       uint64(f.m.settled),
			"opsLostToCrash":   uint64(f.m.lostOps),
			"launchesSkipped":  uint64(f.m.launchesSkipped),
			"faultsInjected":   uint64(f.m.faults),
			"serverCrashes":    uint64(f.m.serverCrashes),
			"recoveredRecords": uint64(f.m.recoveredRecords),
			"interruptedOps":   uint64(f.m.interruptedOps),

			"rolloutsSettled":      uint64(f.m.rolloutsSettled),
			"rolloutsRolledBack":   uint64(f.m.rolloutsRolledBack),
			"rolloutsLostToCrash":  uint64(f.m.rolloutsLost),
			"rolloutWavesPromoted": uint64(f.m.wavesPromoted),
		},
		Throughput: map[string]float64{
			"acks": float64(acks) / wall,
		},
		Latency: map[string]LatencyStats{
			"deploy":    f.m.deploy.stats(),
			"upgrade":   f.m.upgrade.stats(),
			"uninstall": f.m.uninstall.stats(),
			"rollout":   f.m.rollout.stats(),
			"ackRtt":    f.m.ackRTT.stats(),
		},
		Installed:  make(map[string]int),
		Violations: f.violations,
	}
	for _, v := range f.vehicles {
		srv := f.shards[v.shardIdx].srv
		if srv == nil {
			continue
		}
		for _, row := range srv.Store().InstalledApps(v.ID) {
			rep.Installed[string(row.App)]++
		}
	}
	// The statz counters come through the same client surface fescli
	// uses, so the endpoint is exercised end to end, summed across live
	// shards like the router's /v1/statz.
	if st, ok := f.statzSnapshot(); ok {
		rep.Statz = &st
		rep.Throughput["pushes"] = float64(st.PushesSent) / wall
	}
	return rep
}

// statzSnapshot fetches /v1/statz through the typed client from every
// live shard and aggregates it with the router's rule.
func (f *Fleet) statzSnapshot() (api.Statz, bool) {
	sum := api.Statz{Shard: "federated"}
	live := false
	for _, sh := range f.shards {
		if sh.srv == nil {
			continue
		}
		st, err := api.NewLocalClient(sh.srv.Service()).Statz(context.Background())
		if err != nil {
			continue
		}
		live = true
		sum.Add(st)
	}
	return sum, live
}
