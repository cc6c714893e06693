package fleetsim

import (
	"flag"
	"slices"
	"strings"
	"testing"
	"time"

	"dynautosar/internal/sim"
)

// seedFlag replays a failed run: every scenario test logs its
// effective seed, and `-seed N` reruns the identical fault schedule.
var seedFlag = flag.Int64("seed", 0, "scenario seed override (0 derives one from the clock and logs it for replay)")

// soakFlag opts into the long-soak drift run (CI nightly): a stretched
// soak preset whose quiescent-point audits cross-check /v1/statz
// against the tracker's accounting throughout.
var soakFlag = flag.Bool("soak", false, "run the long soak statz-drift test")

func scenarioSeed(t *testing.T) int64 {
	s := *seedFlag
	if s == 0 {
		s = time.Now().UnixNano()&0x3fffffff + 1
	}
	t.Logf("scenario seed %d — replay with: go test ./internal/fleetsim -run '^%s$' -seed %d", s, t.Name(), s)
	return s
}

// scaled shrinks fleet sizes under the race detector and -short, where
// instrumentation makes full-size fleets too slow.
func scaled(n int) int {
	if raceEnabled || testing.Short() {
		n /= 20
	}
	return max(n, 8)
}

func requireClean(t *testing.T, res *Result, seed int64) {
	t.Helper()
	if len(res.Violations) > 0 {
		t.Fatalf("seed %d: %d invariant violations:\n  %s",
			seed, len(res.Violations), strings.Join(res.Violations, "\n  "))
	}
}

// TestScenarioStorm is the headline run: a full-size fleet under
// churn, bus faults, a partition landing mid-upgrade, vehicle reboots
// and a shard crash with follower promotion — zero invariant
// violations allowed, and
// the whole thing must replay from the logged seed.
func TestScenarioStorm(t *testing.T) {
	seed := scenarioSeed(t)
	sc, err := Preset("storm", scaled(10000), seed, 0)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(sc, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	requireClean(t, res, seed)
	c := res.Report.Counters
	if c["serverCrashes"] != 1 {
		t.Errorf("expected exactly one server crash, got %d", c["serverCrashes"])
	}
	if c["recoveredRecords"] == 0 {
		t.Errorf("server recovery replayed no journal records")
	}
	if c["reconnects"] == 0 {
		t.Errorf("a storm without a single reconnect means the faults never landed")
	}
	for _, k := range []string{"deploy", "upgrade", "ackRtt"} {
		if res.Report.Latency[k].Count == 0 {
			t.Errorf("no %s latency samples recorded", k)
		}
	}
	if res.Report.Statz == nil || res.Report.Statz.OpsCreated == 0 {
		t.Errorf("statz counters missing from the report: %+v", res.Report.Statz)
	}
}

// TestScenarioSoak checks the steady-state preset end to end and that
// the report cross-checks against the server's /v1/statz counters.
func TestScenarioSoak(t *testing.T) {
	seed := scenarioSeed(t)
	sc, err := Preset("soak", scaled(400), seed, 12*sim.Second)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(sc, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	requireClean(t, res, seed)
	rep := res.Report
	if rep.Latency["deploy"].Count == 0 || rep.Latency["upgrade"].Count == 0 || rep.Latency["ackRtt"].Count == 0 {
		t.Errorf("latency distributions incomplete: %+v", rep.Latency)
	}
	if rep.Latency["rollout"].Count == 0 {
		t.Errorf("the soak preset's progressive rollout recorded no latency sample")
	}
	st := rep.Statz
	if st == nil {
		t.Fatal("report carries no statz snapshot")
	}
	if st.OpsCreated == 0 || st.PushesSent == 0 {
		t.Errorf("statz counters never moved: %+v", st)
	}
	if st.OpsOpen != 0 {
		t.Errorf("%d operations still open at quiescence", st.OpsOpen)
	}
	if st.PendingAcks != 0 {
		t.Errorf("%d pushes still awaiting acks at quiescence", st.PendingAcks)
	}
}

// TestScenarioSoakDrift is the long-soak drift gate (opt-in via -soak;
// CI runs it nightly): a stretched soak window with a larger fleet, so
// the run crosses many quiescent points — at each one the auditor
// cross-checks /v1/statz against the tracker's accounting, and at the
// end the counters must balance exactly: nothing open, nothing pending,
// every created operation carrying a settled outcome.
func TestScenarioSoakDrift(t *testing.T) {
	if !*soakFlag {
		t.Skip("long soak: enable with -soak")
	}
	seed := scenarioSeed(t)
	sc, err := Preset("soak", scaled(2000), seed, 120*sim.Second)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(sc, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	requireClean(t, res, seed)
	st := res.Report.Statz
	if st == nil {
		t.Fatal("report carries no statz snapshot")
	}
	if st.OpsOpen != 0 || st.PendingAcks != 0 {
		t.Errorf("seed %d: quiescent server still busy: %d ops open, %d acks pending", seed, st.OpsOpen, st.PendingAcks)
	}
	var settled uint64
	for _, n := range st.OpsSettled {
		settled += n
	}
	if settled != st.OpsCreated {
		t.Errorf("seed %d: statz drifted over the soak: %d created, %d settled outcomes", seed, st.OpsCreated, settled)
	}
}

// TestScenarioTraceDeterministic is the replay contract: same scenario
// and seed produce the identical fault/workload trace; a different
// seed produces a different one.
func TestScenarioTraceDeterministic(t *testing.T) {
	seed := scenarioSeed(t)
	run := func(s int64) []string {
		t.Helper()
		sc, err := Preset("churn", 150, s, 6*sim.Second)
		if err != nil {
			t.Fatal(err)
		}
		sc.Speedup = -1 // unpaced: determinism must not depend on pacing
		res, err := Run(sc, nil)
		if err != nil {
			t.Fatal(err)
		}
		requireClean(t, res, s)
		return res.Trace
	}
	a := run(seed)
	b := run(seed)
	if !slices.Equal(a, b) {
		for i := 0; i < len(a) && i < len(b); i++ {
			if a[i] != b[i] {
				t.Fatalf("seed %d: traces diverge at entry %d:\n  run1: %s\n  run2: %s", seed, i, a[i], b[i])
			}
		}
		t.Fatalf("seed %d: trace lengths differ: %d vs %d", seed, len(a), len(b))
	}
	if c := run(seed + 1); slices.Equal(a, c) {
		t.Errorf("seeds %d and %d produced identical traces — the schedule ignores the seed", seed, seed+1)
	}
}

// TestShardCrashTraceDeterministic extends the replay contract across
// both recovery sources of a shard crash: a three-shard storm — ring
// assignment, per-shard batches, a shard crash and its follower's
// promotion — and the same storm on one shard, which restarts from its
// own journal, must each trace identically from the same seed.
func TestShardCrashTraceDeterministic(t *testing.T) {
	seed := scenarioSeed(t)
	for _, shards := range []int{3, 1} {
		run := func(s int64) []string {
			t.Helper()
			sc, err := Preset("storm", scaled(300), s, 10*sim.Second)
			if err != nil {
				t.Fatal(err)
			}
			sc.Speedup = -1 // unpaced: determinism must not depend on pacing
			if shards == 1 {
				sc.Shards = 1
				for i, fa := range sc.Faults {
					if c, ok := fa.(ShardCrash); ok {
						c.Shard = 0
						sc.Faults[i] = c
					}
				}
			}
			res, err := Run(sc, nil)
			if err != nil {
				t.Fatal(err)
			}
			requireClean(t, res, s)
			if got := res.Report.Counters["serverCrashes"]; got != 1 {
				t.Fatalf("seed %d, %d shards: shard crash never fired (serverCrashes = %d)", s, shards, got)
			}
			return res.Trace
		}
		a := run(seed)
		b := run(seed)
		if !slices.Equal(a, b) {
			for i := 0; i < len(a) && i < len(b); i++ {
				if a[i] != b[i] {
					t.Fatalf("seed %d, %d shards: traces diverge at entry %d:\n  run1: %s\n  run2: %s", seed, shards, i, a[i], b[i])
				}
			}
			t.Fatalf("seed %d, %d shards: trace lengths differ: %d vs %d", seed, shards, len(a), len(b))
		}
		if c := run(seed + 1); slices.Equal(a, c) {
			t.Errorf("seeds %d and %d produced identical traces on %d shards — the schedule ignores the seed", seed, seed+1, shards)
		}
	}
}

// TestPartitionHealReconnect isolates the reconnect-backoff behaviour:
// a full-fleet partition heals and every vehicle must find its way
// back, spread by jittered exponential backoff rather than stampeding.
func TestPartitionHealReconnect(t *testing.T) {
	seed := scenarioSeed(t)
	sc := Scenario{
		Name: "heal", Vehicles: scaled(200), Seed: seed,
		Duration: 12 * sim.Second, Speedup: -1,
		Faults: []Fault{Partition{At: sim.Second, Heal: 4 * sim.Second, Fraction: 1}},
	}
	res, err := Run(sc, nil)
	if err != nil {
		t.Fatal(err)
	}
	requireClean(t, res, seed)
	c := res.Report.Counters
	n := uint64(res.Report.Vehicles)
	if c["vehiclesRedialed"] != n {
		t.Errorf("seed %d: %d of %d vehicles redialed after the heal", seed, c["vehiclesRedialed"], n)
	}
	if c["reconnects"] < n {
		t.Errorf("seed %d: expected at least %d reconnects, got %d", seed, n, c["reconnects"])
	}
}

// TestStormCrashRecovery kills the server — shard 0 of a one-shard
// ring, restarted from its own journal — mid-batch-upgrade under a
// fleet-size storm of acks and verifies recovery: zero lost and zero
// duplicated installation rows (invariants I4/I5), with the
// interrupted work accounted rather than stuck.
func TestStormCrashRecovery(t *testing.T) {
	seed := scenarioSeed(t)
	apps, err := FleetApps()
	if err != nil {
		t.Fatal(err)
	}
	d := 20 * sim.Second
	sc := Scenario{
		Name: "storm-crash", Vehicles: scaled(1000), Seed: seed,
		Duration: d, Apps: apps,
		AckMin: 2 * sim.Millisecond, AckMax: 20 * sim.Millisecond,
		Workload: []WorkItem{
			{At: d / 10, Kind: WorkBatchDeploy, App: AppV1},
			{At: d * 2 / 5, Kind: WorkBatchUpgrade, App: AppV1, ToApp: AppV2},
		},
		Faults: []Fault{
			SlowAcks{Fraction: 0.05, Min: 200 * sim.Millisecond, Max: 900 * sim.Millisecond},
			// 150ms of virtual time after the upgrade launches, the
			// server dies; stragglers guarantee swaps are still in
			// flight when it does.
			ShardCrash{At: d*2/5 + 150*sim.Millisecond, Shard: 0, RecoverAfter: sim.Second},
		},
	}
	res, err := Run(sc, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	requireClean(t, res, seed)
	c := res.Report.Counters
	if c["serverCrashes"] != 1 {
		t.Fatalf("expected exactly one server crash, got %d", c["serverCrashes"])
	}
	if c["recoveredRecords"] == 0 {
		t.Errorf("recovery replayed no journal records")
	}
	if c["opsLostToCrash"]+c["interruptedOps"] == 0 {
		t.Errorf("seed %d: the crash interrupted nothing — it missed the upgrade window", seed)
	}
}
