package server

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"

	"dynautosar/internal/api"
	"dynautosar/internal/core"
)

// Progressive-rollout coverage: healthy promotion with exact batch
// accounting, the unhealthy-canary gate with automatic fleet rollback,
// operator abort, wave-plan resolution, deterministic bucketing, and
// the crash/recovery matrix — resume-forward at a clean wave boundary,
// rollback of a wave that died with partial upgrades committed, and
// resume of a rollback the crash interrupted.

// newServerWithFleet registers alice and a same-model fleet.
func newServerWithFleet(t *testing.T, ids []core.VehicleID) *Server {
	t.Helper()
	s := New()
	t.Cleanup(func() { s.Close() })
	if err := s.Store().AddUser("alice"); err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		if err := s.Store().BindVehicle("alice", modelCarConf(id)); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

// uploadCounterPair uploads the upgrade pair every rollout test moves
// between.
func uploadCounterPair(t *testing.T, s *Server) {
	t.Helper()
	if err := s.Store().UploadApp(counterApp(t, "Counter-v1", "1.0", 1, false)); err != nil {
		t.Fatal(err)
	}
	if err := s.Store().UploadApp(counterApp(t, "Counter-v2", "2.0", 100, false)); err != nil {
		t.Fatal(err)
	}
}

// deployCounterFleet completes a Counter-v1 deploy on every vehicle.
func deployCounterFleet(t *testing.T, s *Server, c *api.Client, ids []core.VehicleID) {
	t.Helper()
	ctx := context.Background()
	for _, id := range ids {
		op, err := c.Deploy(ctx, api.DeployRequest{User: "alice", Vehicle: id, App: "Counter-v1"})
		if err != nil {
			t.Fatal(err)
		}
		if final, err := c.WaitOperation(ctx, op.ID, 0); err != nil || final.State != api.StateSucceeded {
			t.Fatalf("deploy to %s = %+v, %v", id, final, err)
		}
	}
}

// wantApp asserts which Counter version each vehicle holds.
func wantApp(t *testing.T, s *Server, ids []core.VehicleID, present, absent core.AppName) {
	t.Helper()
	for _, id := range ids {
		if _, ok := s.Store().InstalledApp(id, present); !ok {
			t.Errorf("%s: %s missing", id, present)
		}
		if _, ok := s.Store().InstalledApp(id, absent); ok {
			t.Errorf("%s: %s still installed", id, absent)
		}
	}
}

// waitRollout waits on a rollout the way fescli does — as the operation
// it is — and then reads its wave view once.
func waitRollout(ctx context.Context, c *api.Client, id string) (api.RolloutStatus, error) {
	if _, err := c.WaitOperation(ctx, id, 10*time.Millisecond); err != nil {
		return api.RolloutStatus{}, err
	}
	return c.GetRollout(ctx, id)
}

// TestRolloutHealthyPromotesAllWaves: a healthy fleet promotes through
// every wave; each wave's batch operation accounts for exactly its
// targets (I2) and the fleet converges on the new version.
func TestRolloutHealthyPromotesAllWaves(t *testing.T) {
	fleet := []core.VehicleID{"VIN-RO1", "VIN-RO2", "VIN-RO3", "VIN-RO4"}
	s := newServerWithFleet(t, fleet)
	uploadCounterPair(t, s)
	for _, id := range fleet {
		connectScriptedVehicle(t, s, id, ackAll)
	}
	c := newV1Client(t, s)
	ctx := context.Background()
	deployCounterFleet(t, s, c, fleet)

	st, err := c.StartRollout(ctx, api.RolloutRequest{
		User: "alice", Vehicles: fleet, From: "Counter-v1", To: "Counter-v2",
		Waves: []api.RolloutWave{{Count: 1}, {Count: 2}, {Fraction: 1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Vehicles) != 4 || len(st.Waves) != 3 {
		t.Fatalf("start snapshot = %+v", st)
	}
	// Deterministic bucketing: the status reports the hashed wave order.
	want := bucketFleet(fleet)
	for i, v := range st.Vehicles {
		if v != want[i] {
			t.Fatalf("vehicle order = %v, want %v", st.Vehicles, want)
		}
	}

	wctx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	final, err := waitRollout(wctx, c, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != api.RolloutSucceeded || !final.Done || final.Error != nil {
		t.Fatalf("final = %+v", final)
	}
	wantTargets := []int{1, 1, 2}
	for i, w := range final.Waves {
		if !w.Promoted || w.Targets != wantTargets[i] || w.Succeeded != w.Targets || w.Failed != 0 {
			t.Fatalf("wave %d = %+v, want %d healthy targets promoted", i+1, w, wantTargets[i])
		}
		op, ok := s.Operation(w.BatchOp)
		if !ok || !op.Done || op.State != api.StateSucceeded ||
			op.VehiclesSucceeded != w.Targets || op.VehiclesFailed != 0 {
			t.Fatalf("wave %d batch op = %+v ok=%v, want %d succeeded", i+1, op, ok, w.Targets)
		}
		if w.RollbackOp != "" {
			t.Fatalf("wave %d grew a rollback op %q on the happy path", i+1, w.RollbackOp)
		}
	}
	wantApp(t, s, fleet, "Counter-v2", "Counter-v1")
}

// TestRolloutUnhealthyCanaryRollsBackFleet is the chaos acceptance
// shape at server scope: the canary vehicle probe-rolls-back the new
// version, the wave-1 gate trips, and the fleet ends with zero vehicles
// on the new version (I5 all-old).
func TestRolloutUnhealthyCanaryRollsBackFleet(t *testing.T) {
	fleet := []core.VehicleID{"VIN-RU1", "VIN-RU2", "VIN-RU3", "VIN-RU4"}
	s := newServerWithFleet(t, fleet)
	uploadCounterPair(t, s)
	canary := bucketFleet(fleet)[0]
	for _, id := range fleet {
		id := id
		script := ackAll
		if id == canary {
			script = func(_ int, msg core.Message) *core.Message {
				switch msg.Type {
				case core.MsgInstall:
					r := msg.Ack()
					return &r
				case core.MsgUpgrade:
					r := msg.Nack("rollback: injected probe failure")
					return &r
				}
				return nil
			}
		}
		connectScriptedVehicle(t, s, id, script)
	}
	c := newV1Client(t, s)
	ctx := context.Background()
	deployCounterFleet(t, s, c, fleet)

	st, err := c.StartRollout(ctx, api.RolloutRequest{
		User: "alice", Vehicles: fleet, From: "Counter-v1", To: "Counter-v2",
	})
	if err != nil {
		t.Fatal(err)
	}
	wctx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	final, err := waitRollout(wctx, c, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != api.RolloutRolledBack || !final.Done {
		t.Fatalf("final = %+v", final)
	}
	if final.Error == nil || final.Error.Code != api.CodeRolloutUnhealthy {
		t.Fatalf("error = %+v, want %s", final.Error, api.CodeRolloutUnhealthy)
	}
	if !strings.Contains(final.GateReason, "probe") && !strings.Contains(final.GateReason, "failure rate") {
		t.Fatalf("gate reason = %q", final.GateReason)
	}
	w := final.Waves[0]
	if w.Failed != 1 || w.ProbeFailures != 1 || w.Promoted {
		t.Fatalf("wave 1 = %+v, want one probe failure and no promotion", w)
	}
	for i, w := range final.Waves[1:] {
		if w.Started || w.BatchOp != "" {
			t.Fatalf("wave %d = %+v ran despite the tripped canary gate", i+2, w)
		}
	}
	wantApp(t, s, fleet, "Counter-v1", "Counter-v2")
}

// TestRolloutAbortRollsBackFleet: an operator abort lands while wave 1
// is still in flight; the executing wave drains, then the already
// upgraded canary is downgraded and the rollout closes with the stable
// aborted code.
func TestRolloutAbortRollsBackFleet(t *testing.T) {
	restoreDelay := rolloutRetryDelay
	rolloutRetryDelay = 10 * time.Millisecond
	// A cleanup, not a defer: it must run after the servers' Close (also
	// cleanups, registered later) has waited for their rollback
	// goroutines, which read the delay.
	t.Cleanup(func() { rolloutRetryDelay = restoreDelay })

	fleet := []core.VehicleID{"VIN-RA1", "VIN-RA2", "VIN-RA3"}
	s := newServerWithFleet(t, fleet)
	uploadCounterPair(t, s)
	canary := bucketFleet(fleet)[0]
	seen := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	for _, id := range fleet {
		script := ackAll
		if id == canary {
			upgrades := 0
			script = func(_ int, msg core.Message) *core.Message {
				switch msg.Type {
				case core.MsgInstall:
					r := msg.Ack()
					return &r
				case core.MsgUpgrade:
					upgrades++
					if upgrades == 1 {
						// Forward swap: let the operator abort land
						// mid-wave, then acknowledge.
						once.Do(func() { close(seen) })
						<-release
					}
					r := msg.Ack()
					return &r
				}
				return nil
			}
		}
		connectScriptedVehicle(t, s, id, script)
	}
	c := newV1Client(t, s)
	ctx := context.Background()
	deployCounterFleet(t, s, c, fleet)

	st, err := c.StartRollout(ctx, api.RolloutRequest{
		User: "alice", Vehicles: fleet, From: "Counter-v1", To: "Counter-v2",
		Waves: []api.RolloutWave{{Count: 1}, {Fraction: 1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	<-seen
	if _, err := c.AbortRollout(ctx, st.ID); err != nil {
		t.Fatal(err)
	}
	close(release)

	wctx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	final, err := waitRollout(wctx, c, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != api.RolloutRolledBack || !final.Done {
		t.Fatalf("final = %+v", final)
	}
	if final.Error == nil || final.Error.Code != api.CodeRolloutAborted {
		t.Fatalf("error = %+v, want %s", final.Error, api.CodeRolloutAborted)
	}
	if final.Waves[1].Started {
		t.Fatalf("wave 2 = %+v ran despite the abort", final.Waves[1])
	}
	wantApp(t, s, fleet, "Counter-v1", "Counter-v2")

	// A second abort of the now-terminal rollout is rejected.
	if _, err := c.AbortRollout(ctx, st.ID); api.CodeOf(err) != api.CodeFailedPrecondition {
		t.Fatalf("abort of terminal rollout = %v", err)
	}
}

// TestRolloutValidation covers the request-shape rejections.
func TestRolloutValidation(t *testing.T) {
	fleet := []core.VehicleID{"VIN-RV1", "VIN-RV2"}
	s := newServerWithFleet(t, fleet)
	uploadCounterPair(t, s)
	cases := []struct {
		name string
		req  api.RolloutRequest
		code api.ErrorCode
	}{
		{"unknown from", api.RolloutRequest{User: "alice", Vehicles: fleet, From: "Nope", To: "Counter-v2"}, api.CodeNotFound},
		{"self upgrade", api.RolloutRequest{User: "alice", Vehicles: fleet, From: "Counter-v1", To: "Counter-v1"}, api.CodeInvalidArgument},
		{"bad wave", api.RolloutRequest{User: "alice", Vehicles: fleet, From: "Counter-v1", To: "Counter-v2",
			Waves: []api.RolloutWave{{Fraction: 2}}}, api.CodeInvalidArgument},
		{"short plan", api.RolloutRequest{User: "alice", Vehicles: fleet, From: "Counter-v1", To: "Counter-v2",
			Waves: []api.RolloutWave{{Count: 1}}}, api.CodeInvalidArgument},
		{"non increasing", api.RolloutRequest{User: "alice", Vehicles: fleet, From: "Counter-v1", To: "Counter-v2",
			Waves: []api.RolloutWave{{Count: 2}, {Fraction: 0.5}}}, api.CodeInvalidArgument},
		{"bad health", api.RolloutRequest{User: "alice", Vehicles: fleet, From: "Counter-v1", To: "Counter-v2",
			Health: &api.RolloutHealthPolicy{MaxFailureRate: 1.5}}, api.CodeInvalidArgument},
	}
	for _, tc := range cases {
		if _, err := s.StartRollout(tc.req); api.CodeOf(err) != tc.code {
			t.Errorf("%s: code = %q (%v), want %q", tc.name, api.CodeOf(err), err, tc.code)
		}
	}
	if _, err := s.GetRollout("ro-nope"); api.CodeOf(err) != api.CodeNotFound {
		t.Errorf("unknown rollout = %v", err)
	}
	if _, err := s.AbortRollout("ro-nope"); api.CodeOf(err) != api.CodeNotFound {
		t.Errorf("abort of unknown rollout = %v", err)
	}
}

// TestResolveWaveBounds pins the plan-to-boundary arithmetic: defaults,
// clamping, fraction rounding, dedup of degenerate boundaries.
func TestResolveWaveBounds(t *testing.T) {
	cases := []struct {
		name  string
		waves []api.RolloutWave
		n     int
		want  []int
	}{
		{"default large", nil, 40, []int{1, 4, 40}},
		{"default tiny", nil, 1, []int{1}},
		{"default pair", nil, 2, []int{1, 2}},
		{"explicit counts", []api.RolloutWave{{Count: 1}, {Count: 3}, {Count: 5}}, 5, []int{1, 3, 5}},
		{"fractions round up", []api.RolloutWave{{Fraction: 0.01}, {Fraction: 1}}, 10, []int{1, 10}},
	}
	for _, tc := range cases {
		got, err := resolveWaveBounds(tc.waves, tc.n)
		if err != nil {
			t.Errorf("%s: %v", tc.name, err)
			continue
		}
		if len(got) != len(tc.want) {
			t.Errorf("%s: bounds = %v, want %v", tc.name, got, tc.want)
			continue
		}
		for i := range got {
			if got[i] != tc.want[i] {
				t.Errorf("%s: bounds = %v, want %v", tc.name, got, tc.want)
				break
			}
		}
	}
	if _, err := resolveWaveBounds(nil, 0); api.CodeOf(err) != api.CodeFailedPrecondition {
		t.Errorf("empty fleet = %v", err)
	}
}

// TestBucketFleetDeterministic: wave membership is a pure function of
// the id set, independent of enrollment order.
func TestBucketFleetDeterministic(t *testing.T) {
	a := bucketFleet([]core.VehicleID{"VIN-1", "VIN-2", "VIN-3", "VIN-4"})
	b := bucketFleet([]core.VehicleID{"VIN-4", "VIN-3", "VIN-2", "VIN-1"})
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("bucket order depends on input order: %v vs %v", a, b)
		}
	}
}

// TestGateTrips pins the health-window evaluation, including the
// zero-policy strictest gate.
func TestGateTrips(t *testing.T) {
	zero := api.RolloutHealthPolicy{}
	if _, tripped := gateTrips(zero, api.RolloutWaveStatus{Targets: 5, Succeeded: 5}); tripped {
		t.Error("healthy wave tripped the zero policy")
	}
	if reason, tripped := gateTrips(zero, api.RolloutWaveStatus{Targets: 5, Succeeded: 4, Failed: 1}); !tripped {
		t.Errorf("one failure passed the zero policy (%q)", reason)
	}
	loose := api.RolloutHealthPolicy{MaxFailureRate: 0.5, MaxProbeFailures: 1}
	if _, tripped := gateTrips(loose, api.RolloutWaveStatus{Targets: 4, Succeeded: 3, Failed: 1, ProbeFailures: 1}); tripped {
		t.Error("wave within the loose bounds tripped")
	}
	if _, tripped := gateTrips(loose, api.RolloutWaveStatus{Targets: 4, Succeeded: 1, Failed: 3}); !tripped {
		t.Error("75% failure rate passed the 50% bound")
	}
	if _, tripped := gateTrips(loose, api.RolloutWaveStatus{Targets: 4, Succeeded: 2, Failed: 2, ProbeFailures: 2}); !tripped {
		t.Error("two probe rollbacks passed the one-probe bound")
	}
	rtt := api.RolloutHealthPolicy{MaxFailureRate: 0.5, MaxAckP99Millis: 10}
	if _, tripped := gateTrips(rtt, api.RolloutWaveStatus{Targets: 4, Succeeded: 4, AckP99Millis: 25}); !tripped {
		t.Error("25ms p99 passed the 10ms bound")
	}
}

func TestP99NearestRank(t *testing.T) {
	if got := p99(nil); got != 0 {
		t.Errorf("p99(nil) = %v", got)
	}
	if got := p99([]float64{7}); got != 7 {
		t.Errorf("p99 of one sample = %v", got)
	}
	samples := make([]float64, 100)
	for i := range samples {
		samples[i] = float64(i + 1)
	}
	if got := p99(samples); got != 99 {
		t.Errorf("p99 of 1..100 = %v, want 99", got)
	}
}
