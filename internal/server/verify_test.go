package server

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"dynautosar/internal/api"
	"dynautosar/internal/core"
	"dynautosar/internal/plugin"
	"dynautosar/internal/vehicle"
	"dynautosar/internal/verify"
	"dynautosar/internal/vm"
)

// TestVerifyDryRunDeploy: the dry run reports the install path of a
// safe plan and records nothing.
func TestVerifyDryRunDeploy(t *testing.T) {
	s := newServerWithVehicle(t, "VIN-V1")
	if err := s.Store().UploadApp(paperApp(t)); err != nil {
		t.Fatal(err)
	}
	report, err := s.VerifyOperation("alice", "VIN-V1", api.OpDeploy, "RemoteControl", "")
	if err != nil {
		t.Fatal(err)
	}
	if !report.OK || report.Error != nil {
		t.Fatalf("safe deploy not OK: %+v", report)
	}
	want := map[string]bool{
		"install COM on ECU1/SW-C1": true,
		"install OP on ECU2/SW-C2":  true,
	}
	if len(report.Steps) != len(want) {
		t.Fatalf("steps = %v", report.Steps)
	}
	for _, step := range report.Steps {
		if !want[step] {
			t.Errorf("unexpected step %q", step)
		}
	}
	if rows := s.Store().InstalledApps("VIN-V1"); len(rows) != 0 {
		t.Fatalf("dry run recorded an installation: %v", rows)
	}
}

// TestVerifyDryRunUnknownKind: non-plannable kinds are hard errors,
// not reports.
func TestVerifyDryRunUnknownKind(t *testing.T) {
	s := newServerWithVehicle(t, "VIN-V2")
	_, err := s.VerifyOperation("alice", "VIN-V2", api.OpRestore, "RemoteControl", "")
	if api.CodeOf(err) != api.CodeInvalidArgument {
		t.Fatalf("err = %v, want %s", err, api.CodeInvalidArgument)
	}
}

// TestUploadRejectsUnsafeBytecode: the bytecode verifier gates the app
// database — a program with a reachable stack trap never uploads.
func TestUploadRejectsUnsafeBytecode(t *testing.T) {
	prog := &vm.Program{
		Name:     "Trap",
		Version:  "1.0",
		Ports:    []vm.PortDecl{{Name: "out", Direction: core.Provided}},
		Handlers: []vm.Handler{{Kind: vm.HandlerInit, Entry: 0}},
		Code: []vm.Instr{
			{Op: vm.OpAdd}, // pops 2 from an empty stack
			{Op: vm.OpHalt},
		},
	}
	bin, err := plugin.FromProgram(prog, plugin.Manifest{Developer: "test"})
	if err != nil {
		t.Fatal(err)
	}
	s := New()
	err = s.Store().UploadApp(api.App{
		Name:     "TrapApp",
		Binaries: []plugin.Binary{bin},
		Confs: []api.SWConf{{
			Model:       "modelcar-v1",
			Deployments: []api.Deployment{{Plugin: "Trap", ECU: vehicle.ECU2, SWC: vehicle.SWC2}},
		}},
	})
	if err == nil || !strings.Contains(err.Error(), "underflow") {
		t.Fatalf("unsafe bytecode uploaded: %v", err)
	}
	if _, ok := s.Store().App("TrapApp"); ok {
		t.Fatal("rejected app is in the database")
	}
}

// fatApp builds an app whose single plug-in has more unconnected
// required ports than the quiesce bound allows — deployable (installs
// do not quiesce) but never upgradable in place.
func fatApp(t *testing.T, name core.AppName, version string) api.App {
	t.Helper()
	var b strings.Builder
	fmt.Fprintf(&b, ".plugin Fat %s\n", version)
	for i := 0; i <= verify.MaxQuiesceInDegree; i++ {
		fmt.Fprintf(&b, ".port In%02d required\n", i)
	}
	b.WriteString("\non_init:\n\tHALT\n")
	prog, err := vm.Assemble(b.String())
	if err != nil {
		t.Fatal(err)
	}
	bin, err := plugin.FromProgram(prog, plugin.Manifest{Developer: "test"})
	if err != nil {
		t.Fatal(err)
	}
	return api.App{
		Name:     name,
		Binaries: []plugin.Binary{bin},
		Confs: []api.SWConf{{
			Model:       "modelcar-v1",
			Deployments: []api.Deployment{{Plugin: "Fat", ECU: vehicle.ECU2, SWC: vehicle.SWC2}},
		}},
	}
}

// TestVerifyUpgradeQuiesceBound: upgrading a plug-in whose inbound
// degree exceeds the quiesce bound is rejected with unsafe_plan, both
// in the dry run and on the live path.
func TestVerifyUpgradeQuiesceBound(t *testing.T) {
	s := newServerWithVehicle(t, "VIN-FAT")
	if err := s.Store().UploadApp(fatApp(t, "FatApp-v1", "1.0")); err != nil {
		t.Fatal(err)
	}
	if err := s.Store().UploadApp(fatApp(t, "FatApp-v2", "2.0")); err != nil {
		t.Fatal(err)
	}
	connectScriptedVehicle(t, s, "VIN-FAT", ackAll)
	op, err := s.Deploy(api.DeployRequest{User: "alice", Vehicle: "VIN-FAT", App: "FatApp-v1"})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		cur, ok := s.Operation(op.ID)
		if !ok {
			t.Fatal("deploy operation vanished")
		}
		if cur.State == api.StateSucceeded {
			break
		}
		if cur.State == api.StateFailed || time.Now().After(deadline) {
			t.Fatalf("deploy = %+v", cur)
		}
		time.Sleep(time.Millisecond)
	}

	report, err := s.VerifyOperation("alice", "VIN-FAT", api.OpUpgrade, "FatApp-v1", "FatApp-v2")
	if err != nil {
		t.Fatal(err)
	}
	if report.OK || report.Error == nil {
		t.Fatalf("unsafe upgrade passed the dry run: %+v", report)
	}
	if report.Error.Code != api.CodeUnsafePlan {
		t.Fatalf("error code = %s (%s), want %s", report.Error.Code, report.Error.Message, api.CodeUnsafePlan)
	}
	if !strings.Contains(report.Error.Message, "quiesce") {
		t.Errorf("counterexample %q does not name the quiesce bound", report.Error.Message)
	}

	// The live path applies the same gate at planning time.
	if _, err := launch(t, s)(s.Upgrade(api.UpgradeRequest{User: "alice", Vehicle: "VIN-FAT", From: "FatApp-v1", To: "FatApp-v2"})); api.CodeOf(err) != api.CodeUnsafePlan {
		t.Fatalf("live upgrade err = %v, want %s", err, api.CodeUnsafePlan)
	}
}
