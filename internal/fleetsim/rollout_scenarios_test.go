package fleetsim

import (
	"testing"
	"time"

	"dynautosar/internal/api"
	"dynautosar/internal/sim"
)

// Chaos scenarios for progressive rollouts and journal disk faults:
// health-gated canary waves must stop an unhealthy version at wave 1
// and converge the fleet back to all-old (I5), rollouts must stay
// invariant-clean while racing other batch operations on intersecting
// vehicle groups, and a disk that fills or slows mid-upgrade must
// degrade the server per the durability policy without corrupting
// recovery.

// TestScenarioRolloutUnhealthyCanary is the acceptance shape: every
// vehicle fails its post-upgrade probes, so the rollout of the new
// version must trip the zero health policy at the canary wave, promote
// nothing, and roll the fleet back until zero vehicles hold the new
// version.
func TestScenarioRolloutUnhealthyCanary(t *testing.T) {
	seed := scenarioSeed(t)
	apps, err := FleetApps()
	if err != nil {
		t.Fatal(err)
	}
	d := 10 * sim.Second
	sc := Scenario{
		Name: "rollout-unhealthy", Vehicles: scaled(300), Seed: seed,
		Duration: d, Apps: apps,
		Workload: []WorkItem{
			{At: d / 10, Kind: WorkBatchDeploy, App: AppV1},
			{At: d / 2, Kind: WorkRollout, App: AppV1, ToApp: AppV2},
		},
		Faults: []Fault{ProbeFailure{At: d * 2 / 5, Fraction: 1}},
	}
	res, err := Run(sc, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	requireClean(t, res, seed)
	rep := res.Report
	c := rep.Counters
	if c["rolloutsSettled"] != 1 || c["rolloutsRolledBack"] != 1 {
		t.Errorf("seed %d: rollout did not roll back: settled=%d rolledBack=%d",
			seed, c["rolloutsSettled"], c["rolloutsRolledBack"])
	}
	if c["rolloutWavesPromoted"] != 0 {
		t.Errorf("seed %d: unhealthy rollout promoted %d waves past the tripped canary gate",
			seed, c["rolloutWavesPromoted"])
	}
	if c["probeNacks"] == 0 {
		t.Errorf("seed %d: no probe failures reached the server — the gate never saw the fault", seed)
	}
	if n := rep.Installed[string(AppV2)]; n != 0 {
		t.Errorf("seed %d: I5 all-old violated: %d vehicles still hold %s after the fleet rollback",
			seed, n, AppV2)
	}
	if rep.Installed[string(AppV1)] == 0 {
		t.Errorf("seed %d: fleet lost the old version entirely: %+v", seed, rep.Installed)
	}
	if rep.Latency["rollout"].Count != 1 {
		t.Errorf("seed %d: rollout latency samples = %d, want 1", seed, rep.Latency["rollout"].Count)
	}
}

// TestPartitionDuringRolloutWave lands a rollout wave while a network
// partition isolates part of it: the unreachable vehicles fail their
// wave children, the strict zero policy trips, and the automatic fleet
// rollback converges every reachable vehicle back to the old version
// before the partition even heals.
func TestPartitionDuringRolloutWave(t *testing.T) {
	seed := scenarioSeed(t)
	apps, err := FleetApps()
	if err != nil {
		t.Fatal(err)
	}
	d := 12 * sim.Second
	sc := Scenario{
		Name: "rollout-partition", Vehicles: scaled(300), Seed: seed,
		Duration: d, Apps: apps,
		Workload: []WorkItem{
			{At: d / 10, Kind: WorkBatchDeploy, App: AppV1},
			{At: d / 2, Kind: WorkRollout, App: AppV1, ToApp: AppV2},
		},
		Faults: []Fault{Partition{At: d * 2 / 5, Heal: d * 3 / 4, Fraction: 0.4}},
	}
	res, err := Run(sc, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	requireClean(t, res, seed)
	rep := res.Report
	c := rep.Counters
	if c["rolloutsRolledBack"] != 1 {
		t.Errorf("seed %d: partitioned rollout did not roll back: %+v", seed, c)
	}
	if n := rep.Installed[string(AppV2)]; n != 0 {
		t.Errorf("seed %d: I5 all-old violated: %d vehicles on %s after partition-tripped rollback",
			seed, n, AppV2)
	}
	if rep.Installed[string(AppV1)] == 0 {
		t.Errorf("seed %d: old version gone from the fleet: %+v", seed, rep.Installed)
	}
}

// TestScenarioOverlappingBatchRollout races a batch upgrade, a batch
// deploy and a progressive rollout over intersecting vehicle samples
// under churn: per-vehicle claims must arbitrate every collision, and
// whatever interleaving wins, the audit (I1-I5) must come back clean
// with exact batch accounting.
func TestScenarioOverlappingBatchRollout(t *testing.T) {
	seed := scenarioSeed(t)
	apps, err := FleetApps()
	if err != nil {
		t.Fatal(err)
	}
	d := 12 * sim.Second
	sc := Scenario{
		Name: "overlap", Vehicles: scaled(400), Seed: seed,
		Duration: d, Apps: apps,
		// Stretched acks keep all three operations in flight together.
		AckMin: 2 * sim.Millisecond, AckMax: 20 * sim.Millisecond,
		Workload: []WorkItem{
			{At: d / 10, Kind: WorkBatchDeploy, App: AppV1},
			{At: d * 2 / 5, Kind: WorkBatchUpgrade, App: AppV1, ToApp: AppV2, Fraction: 0.5},
			{At: d * 2 / 5, Kind: WorkRollout, App: AppV1, ToApp: AppV2,
				Health: &api.RolloutHealthPolicy{MaxFailureRate: 0.9, MaxProbeFailures: 5}},
			{At: d * 2 / 5, Kind: WorkBatchDeploy, App: AppWidget, Fraction: 0.3},
		},
		Faults: []Fault{
			Churn{Start: d / 10, Stop: d * 3 / 4, Every: d / 50},
		},
	}
	res, err := Run(sc, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	requireClean(t, res, seed)
	rep := res.Report
	if rep.Counters["rolloutsSettled"] != 1 {
		t.Errorf("seed %d: rollout never settled: %+v", seed, rep.Counters)
	}
	if rep.Latency["upgrade"].Count == 0 {
		t.Errorf("seed %d: no upgrade latency samples from the racing batches", seed)
	}
	// However the race resolved, the family invariant pins each vehicle
	// to at most one version; both versions surviving somewhere is the
	// expected outcome of a conflicted rollout, never on one vehicle.
	if rep.Installed[string(AppV1)]+rep.Installed[string(AppV2)] == 0 {
		t.Errorf("seed %d: the family vanished from the fleet: %+v", seed, rep.Installed)
	}
}

// TestStormDiskFullRecovery fills the journal's disk while a fleet
// upgrade is committing: the durability policy fails the in-flight
// children and degrades the server (sticky), and the crash-restart
// recovers exactly the acknowledged prefix — no torn tail, no invariant
// violations.
func TestStormDiskFullRecovery(t *testing.T) {
	seed := scenarioSeed(t)
	apps, err := FleetApps()
	if err != nil {
		t.Fatal(err)
	}
	d := 16 * sim.Second
	sc := Scenario{
		Name: "disk-full", Vehicles: scaled(300), Seed: seed,
		Duration: d, Apps: apps,
		AckMin: 2 * sim.Millisecond, AckMax: 20 * sim.Millisecond,
		Workload: []WorkItem{
			{At: d / 10, Kind: WorkBatchDeploy, App: AppV1},
			{At: d * 3 / 10, Kind: WorkBatchUpgrade, App: AppV1, ToApp: AppV2},
		},
		Faults: []Fault{
			// The disk fills while upgrade commits are in flight; the
			// crash-restart clears the fault like swapping the disk.
			JournalFault{At: d*3/10 + 100*sim.Millisecond, DiskFull: true},
			ShardCrash{At: d / 2, Shard: 0, RecoverAfter: sim.Second},
		},
	}
	res, err := Run(sc, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	requireClean(t, res, seed)
	c := res.Report.Counters
	if c["serverCrashes"] != 1 {
		t.Fatalf("seed %d: expected exactly one server crash, got %d", seed, c["serverCrashes"])
	}
	if c["recoveredRecords"] == 0 {
		t.Errorf("seed %d: recovery replayed no journal records", seed)
	}
	if c["faultsInjected"] == 0 {
		t.Errorf("seed %d: the journal fault never fired", seed)
	}
}

// TestStormSlowFsync drags every fsync out for the middle of the run: a
// slow disk must slow the commits down, not fail work or drift state.
func TestStormSlowFsync(t *testing.T) {
	seed := scenarioSeed(t)
	apps, err := FleetApps()
	if err != nil {
		t.Fatal(err)
	}
	d := 12 * sim.Second
	sc := Scenario{
		Name: "slow-fsync", Vehicles: scaled(200), Seed: seed,
		Duration: d, Apps: apps,
		Workload: []WorkItem{
			{At: d / 10, Kind: WorkBatchDeploy, App: AppV1},
			{At: d * 2 / 5, Kind: WorkBatchUpgrade, App: AppV1, ToApp: AppV2},
		},
		Faults: []Fault{
			JournalFault{At: d / 5, Heal: d * 4 / 5, SyncDelay: 2 * time.Millisecond},
		},
	}
	res, err := Run(sc, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	requireClean(t, res, seed)
	rep := res.Report
	if rep.Latency["deploy"].Count == 0 || rep.Latency["upgrade"].Count == 0 {
		t.Errorf("seed %d: slow fsync starved the workload: %+v", seed, rep.Latency)
	}
	if n := rep.Installed[string(AppV2)]; n == 0 {
		t.Errorf("seed %d: upgrade made no progress under the slow disk: %+v", seed, rep.Installed)
	}
}

// TestScenarioRolloutPreset runs the built-in progressive-delivery
// preset end to end: a healthy rollout under churn followed by an
// unhealthy one that must roll back.
func TestScenarioRolloutPreset(t *testing.T) {
	seed := scenarioSeed(t)
	sc, err := Preset("rollout", scaled(600), seed, 0)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(sc, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	requireClean(t, res, seed)
	c := res.Report.Counters
	if c["rolloutsSettled"] != 2 {
		t.Errorf("seed %d: %d of 2 rollouts settled", seed, c["rolloutsSettled"])
	}
	if c["rolloutsRolledBack"] == 0 {
		t.Errorf("seed %d: the poisoned rollout never rolled back", seed)
	}
	if res.Report.Latency["rollout"].Count != 2 {
		t.Errorf("seed %d: rollout latency samples = %d, want 2", seed, res.Report.Latency["rollout"].Count)
	}
}
