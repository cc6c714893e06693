package server

import (
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"dynautosar/internal/api"
	"dynautosar/internal/core"
	"dynautosar/internal/ecm"
	"dynautosar/internal/plugin"
	"dynautosar/internal/sim"
	"dynautosar/internal/vehicle"
	"dynautosar/internal/vm"
	"io"
)

// paperApp builds the section 4 application as uploaded to the server:
// the COM and OP binaries plus the SW conf for the model car.
func paperApp(t *testing.T) api.App {
	t.Helper()
	com, op, err := vehicle.PaperBinaries()
	if err != nil {
		t.Fatal(err)
	}
	return api.App{
		Name:     "RemoteControl",
		Binaries: []plugin.Binary{com, op},
		Confs: []api.SWConf{{
			Model: "modelcar-v1",
			Deployments: []api.Deployment{
				{
					Plugin: "COM", ECU: vehicle.ECU1, SWC: vehicle.SWC1,
					Connections: []api.PortConnection{
						{Port: "WheelsExt", External: &api.ExternalSpec{Endpoint: vehicle.PhoneEndpoint, MessageID: "Wheels"}},
						{Port: "SpeedExt", External: &api.ExternalSpec{Endpoint: vehicle.PhoneEndpoint, MessageID: "Speed"}},
						{Port: "WheelsFwd", RemotePlugin: "OP", RemotePort: "WheelsIn"},
						{Port: "SpeedFwd", RemotePlugin: "OP", RemotePort: "SpeedIn"},
					},
				},
				{
					Plugin: "OP", ECU: vehicle.ECU2, SWC: vehicle.SWC2,
					Connections: []api.PortConnection{
						{Port: "WheelsOut", Virtual: "WheelsReq"},
						{Port: "SpeedOut", Virtual: "SpeedReq"},
					},
				},
			},
		}},
	}
}

// modelCarConf builds the vehicle conf without assembling a vehicle.
func modelCarConf(id core.VehicleID) core.VehicleConf {
	ecmCfg := vehicle.ECMConfig()
	swc2Cfg := vehicle.SWC2Config()
	return core.VehicleConf{
		Vehicle: id,
		Model:   "modelcar-v1",
		SWCs: []core.SWCConf{
			{ECU: vehicle.ECU1, SWC: vehicle.SWC1, MemoryQuota: ecmCfg.MemoryQuota,
				MaxPlugins: ecmCfg.MaxPlugins, ECM: true, VirtualPorts: ecmCfg.VirtualPorts},
			{ECU: vehicle.ECU2, SWC: vehicle.SWC2, MemoryQuota: swc2Cfg.MemoryQuota,
				MaxPlugins: swc2Cfg.MaxPlugins, VirtualPorts: swc2Cfg.VirtualPorts},
		},
	}
}

// newServerWithVehicle registers alice and her model car.
func newServerWithVehicle(t *testing.T, id core.VehicleID) *Server {
	t.Helper()
	s := New()
	if err := s.Store().AddUser("alice"); err != nil {
		t.Fatal(err)
	}
	if err := s.Store().BindVehicle("alice", modelCarConf(id)); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestFig2ContextGenerationMatchesPaper(t *testing.T) {
	s := newServerWithVehicle(t, "VIN1")
	app := paperApp(t)
	vr, _ := s.Store().Vehicle("VIN1")
	report := s.CheckCompatibility(app, vr)
	if err := report.Error(); err != nil {
		t.Fatal(err)
	}
	order, err := InstallOrder(app, report.Conf)
	if err != nil {
		t.Fatal(err)
	}
	contexts, err := s.GenerateContexts(app, vr, order)
	if err != nil {
		t.Fatal(err)
	}
	com := contexts["COM"]
	op := contexts["OP"]

	// The paper's exact contexts (section 4).
	if got := op.PLC.String(); got != "{P0-V3, P1-V3, P2-V4, P3-V5}" {
		t.Errorf("OP PLC = %s, want the paper's {P0-V3, P1-V3, P2-V4, P3-V5}", got)
	}
	if got := com.PLC.String(); got != "{P0-, P1-, P2-V0.P0, P3-V0.P1}" {
		t.Errorf("COM PLC = %s, want the paper's {P0-, P1-, P2-V0.P0, P3-V0.P1}", got)
	}
	wantECC := "{{111.22.33.44:56789, ECU1, 'Wheels', P0}, {111.22.33.44:56789, ECU1, 'Speed', P1}}"
	if got := com.ECC.String(); got != wantECC {
		t.Errorf("COM ECC = %s, want %s", got, wantECC)
	}
	if len(op.ECC) != 0 {
		t.Errorf("OP ECC = %v, want none", op.ECC)
	}
	// PICs start at P0 per SW-C.
	if id, _ := com.PIC.Lookup("WheelsExt"); id != 0 {
		t.Errorf("COM WheelsExt = %v", id)
	}
	if id, _ := op.PIC.Lookup("WheelsIn"); id != 0 {
		t.Errorf("OP WheelsIn = %v", id)
	}
}

func TestPICSkipsUsedIDs(t *testing.T) {
	s := newServerWithVehicle(t, "VIN1")
	// Pretend another app already holds P0-P1 on SW-C2.
	s.Store().tryRecordInstallation(&api.InstalledApp{
		App: "Other", Vehicle: "VIN1",
		Plugins: []api.InstalledPlugin{{
			Plugin: "X", ECU: vehicle.ECU2, SWC: vehicle.SWC2,
			PIC: core.PIC{{Name: "a", ID: 0}, {Name: "b", ID: 1}}, Acked: true,
		}},
	})
	app := paperApp(t)
	vr, _ := s.Store().Vehicle("VIN1")
	conf := app.Confs[0]
	order, _ := InstallOrder(app, conf)
	contexts, err := s.GenerateContexts(app, vr, order)
	if err != nil {
		t.Fatal(err)
	}
	op := contexts["OP"]
	if id, _ := op.PIC.Lookup("WheelsIn"); id != 2 {
		t.Errorf("OP WheelsIn = %v, want P2 (P0/P1 taken)", id)
	}
	// COM on SW-C1 is unaffected.
	com := contexts["COM"]
	if id, _ := com.PIC.Lookup("WheelsExt"); id != 0 {
		t.Errorf("COM WheelsExt = %v, want P0", id)
	}
}

func TestCompatibilityFailures(t *testing.T) {
	s := newServerWithVehicle(t, "VIN1")
	vr, _ := s.Store().Vehicle("VIN1")

	// Wrong model.
	app := paperApp(t)
	app.Confs[0].Model = "truck-x"
	report := s.CheckCompatibility(app, vr)
	if report.OK || !strings.Contains(report.Error().Error(), "no SW conf") {
		t.Fatalf("model mismatch: %v", report.Error())
	}

	// Unknown SW-C.
	app = paperApp(t)
	app.Confs[0].Deployments[1].SWC = "SW-C9"
	report = s.CheckCompatibility(app, vr)
	if report.OK {
		t.Fatal("unknown SW-C accepted")
	}

	// Unknown virtual port.
	app = paperApp(t)
	app.Confs[0].Deployments[1].Connections[0].Virtual = "TurboBoost"
	report = s.CheckCompatibility(app, vr)
	if report.OK {
		t.Fatal("unknown virtual port accepted")
	}

	// Missing dependency.
	app = paperApp(t)
	app.Binaries[0].Manifest.Requires = []core.PluginName{"Ghost"}
	report = s.CheckCompatibility(app, vr)
	if report.OK || !strings.Contains(report.Error().Error(), "requires Ghost") {
		t.Fatalf("dependency: %v", report.Error())
	}

	// Conflict with installed plug-in.
	s.Store().tryRecordInstallation(&api.InstalledApp{
		App: "Old", Vehicle: "VIN1",
		Plugins: []api.InstalledPlugin{{Plugin: "LegacyOP", ECU: vehicle.ECU2, SWC: vehicle.SWC2, Acked: true}},
	})
	app = paperApp(t)
	app.Binaries[1].Manifest.Conflicts = []core.PluginName{"LegacyOP"}
	report = s.CheckCompatibility(app, vr)
	if report.OK || !strings.Contains(report.Error().Error(), "conflicts") {
		t.Fatalf("conflict: %v", report.Error())
	}
}

func TestCompatibilityQuotaChecks(t *testing.T) {
	s := New()
	_ = s.Store().AddUser("alice")
	conf := modelCarConf("VIN1")
	conf.SWCs[1].MemoryQuota = 1 // OP needs 2 words (its globals)
	if err := s.Store().BindVehicle("alice", conf); err != nil {
		t.Fatal(err)
	}
	vr, _ := s.Store().Vehicle("VIN1")
	report := s.CheckCompatibility(paperApp(t), vr)
	if report.OK || !strings.Contains(report.Error().Error(), "memory quota") {
		t.Fatalf("memory quota: %v", report.Error())
	}
}

func TestInstallOrderRespectsRequires(t *testing.T) {
	app := paperApp(t)
	app.Binaries[0].Manifest.Requires = []core.PluginName{"OP"} // COM requires OP
	order, err := InstallOrder(app, app.Confs[0])
	if err != nil {
		t.Fatal(err)
	}
	if order[0].Plugin != "OP" || order[1].Plugin != "COM" {
		t.Fatalf("order = %v", order)
	}
	// A cycle is rejected.
	app.Binaries[1].Manifest.Requires = []core.PluginName{"COM"}
	if _, err := InstallOrder(app, app.Confs[0]); err == nil {
		t.Fatal("cycle accepted")
	}
}

func TestSWConfValidate(t *testing.T) {
	good := paperApp(t).Confs[0]
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := good
	bad.Model = ""
	if err := bad.Validate(); err == nil {
		t.Fatal("empty model accepted")
	}
	bad = good
	bad.Deployments = append(bad.Deployments, bad.Deployments[0])
	if err := bad.Validate(); err == nil {
		t.Fatal("duplicate deployment accepted")
	}
	bad = paperApp(t).Confs[0]
	bad.Deployments[0].Connections[0].Virtual = "also" // two targets
	if err := bad.Validate(); err == nil {
		t.Fatal("double target accepted")
	}
	bad = paperApp(t).Confs[0]
	bad.Deployments[0].Connections[0].External = nil // no target
	if err := bad.Validate(); err == nil {
		t.Fatal("targetless connection accepted")
	}
}

func TestStoreValidation(t *testing.T) {
	s := NewStore()
	if err := s.AddUser(""); err == nil {
		t.Fatal("empty user accepted")
	}
	if err := s.AddUser("bob"); err != nil {
		t.Fatal(err)
	}
	if err := s.AddUser("bob"); err == nil {
		t.Fatal("duplicate user accepted")
	}
	if err := s.BindVehicle("ghost", modelCarConf("V1")); err == nil {
		t.Fatal("unknown owner accepted")
	}
	if err := s.BindVehicle("bob", modelCarConf("V1")); err != nil {
		t.Fatal(err)
	}
	if err := s.BindVehicle("bob", modelCarConf("V1")); err == nil {
		t.Fatal("duplicate vehicle accepted")
	}
	u, _ := s.User("bob")
	if len(u.Vehicles) != 1 || u.Vehicles[0] != "V1" {
		t.Fatalf("user vehicles = %v", u.Vehicles)
	}
	if err := s.UploadApp(api.App{}); err == nil {
		t.Fatal("empty app accepted")
	}
	prog, _ := vm.Assemble(".plugin X 1.0\n.port p required\non_message p:\n\tRET\n")
	bin, _ := plugin.FromProgram(prog, plugin.Manifest{})
	if err := s.UploadApp(api.App{Name: "A", Binaries: []plugin.Binary{bin, bin}}); err == nil {
		t.Fatal("duplicate binary accepted")
	}
	app := api.App{Name: "A", Binaries: []plugin.Binary{bin},
		Confs: []api.SWConf{{Model: "m", Deployments: []api.Deployment{{Plugin: "Nope", ECU: "E", SWC: "S"}}}}}
	if err := s.UploadApp(app); err == nil {
		t.Fatal("conf with unknown plug-in accepted")
	}
}

// connectCar assembles a model car and links it to the server through an
// in-memory pipe.
func connectCar(t *testing.T, s *Server, id core.VehicleID) (*vehicle.ModelCar, *sim.Engine) {
	t.Helper()
	eng := sim.NewEngine()
	car, err := vehicle.NewModelCar(eng, id)
	if err != nil {
		t.Fatal(err)
	}
	car.ECM.SetDialer(ecm.DialerFunc(func(string) (io.ReadWriteCloser, error) {
		c1, c2 := net.Pipe()
		go func() { // endpoint sink: drain writes
			buf := make([]byte, 4096)
			for {
				if _, err := c2.Read(buf); err != nil {
					return
				}
			}
		}()
		return c1, nil
	}))
	vehicleSide, serverSide := net.Pipe()
	go s.Pusher().ServeConn(serverSide)
	if err := car.ECM.ConnectServer(vehicleSide, id); err != nil {
		t.Fatal(err)
	}
	// Wait for the pusher to register the vehicle.
	deadline := time.Now().Add(2 * time.Second)
	for !s.Pusher().Connected(id) {
		if time.Now().After(deadline) {
			t.Fatal("vehicle never registered with pusher")
		}
		time.Sleep(time.Millisecond)
	}
	return car, eng
}

// pumpUntil advances the simulation until cond holds or the wall-clock
// deadline passes.
func pumpUntil(t *testing.T, eng *sim.Engine, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached")
		}
		eng.RunFor(10 * sim.Millisecond)
		time.Sleep(200 * time.Microsecond)
	}
}

// launch takes the result of a Server entry point (Deploy, Uninstall,
// Restore, Upgrade), waits for the push pipeline behind it to finish
// and returns the operation with its launch outcome: a precheck or
// launch error, nil once the packages are on the wire.
func launch(t *testing.T, s *Server) func(api.Operation, error) (api.Operation, error) {
	return func(op api.Operation, err error) (api.Operation, error) {
		t.Helper()
		if err != nil {
			return op, err
		}
		waitFor(t, func() bool {
			op, _ = s.Operation(op.ID)
			return op.State != api.StatePending
		})
		if op.Error != nil {
			return op, op.Error
		}
		return op, nil
	}
}

func TestFig2EndToEndDeployment(t *testing.T) {
	s := newServerWithVehicle(t, "VIN-E2E")
	if err := s.Store().UploadApp(paperApp(t)); err != nil {
		t.Fatal(err)
	}
	car, eng := connectCar(t, s, "VIN-E2E")

	if _, err := launch(t, s)(s.Deploy(api.DeployRequest{User: "alice", Vehicle: "VIN-E2E", App: "RemoteControl"})); err != nil {
		t.Fatal(err)
	}
	pumpUntil(t, eng, func() bool { return s.Status("VIN-E2E", "RemoteControl").Complete() })

	// Both plug-ins run where the paper puts them.
	if _, ok := car.ECM.Plugin("COM"); !ok {
		t.Fatal("COM not on SW-C1")
	}
	if _, ok := car.SWC2PIRTE.Plugin("OP"); !ok {
		t.Fatal("OP not on SW-C2")
	}

	// The signal chain works end to end through server-generated contexts.
	car.ECM.HandleEndpointFrame(vehicle.PhoneEndpoint, "Wheels", 55)
	pumpUntil(t, eng, func() bool { return car.Dynamics.WheelAngle() == 55 })

	// Double deployment is refused.
	if _, err := launch(t, s)(s.Deploy(api.DeployRequest{User: "alice", Vehicle: "VIN-E2E", App: "RemoteControl"})); err == nil {
		t.Fatal("double deploy accepted")
	}

	// Uninstall removes both plug-ins and the InstalledAPP row.
	if _, err := launch(t, s)(s.Uninstall(api.UninstallRequest{User: "alice", Vehicle: "VIN-E2E", App: "RemoteControl"})); err != nil {
		t.Fatal(err)
	}
	pumpUntil(t, eng, func() bool {
		_, ok := s.Store().InstalledApp("VIN-E2E", "RemoteControl")
		return !ok
	})
	if _, ok := car.SWC2PIRTE.Plugin("OP"); ok {
		t.Fatal("OP survived uninstall")
	}
}

func TestUninstallBlockedByDependants(t *testing.T) {
	s := newServerWithVehicle(t, "VIN-DEP")
	base := paperApp(t)
	if err := s.Store().UploadApp(base); err != nil {
		t.Fatal(err)
	}
	// A second app whose plug-in requires OP.
	prog, _ := vm.Assemble(".plugin Analytics 1.0\n.port in required\non_message in:\n\tRET\n")
	bin, _ := plugin.FromProgram(prog, plugin.Manifest{Requires: []core.PluginName{"OP"}})
	dep := api.App{Name: "Analytics", Binaries: []plugin.Binary{bin},
		Confs: []api.SWConf{{Model: "modelcar-v1", Deployments: []api.Deployment{
			{Plugin: "Analytics", ECU: vehicle.ECU2, SWC: vehicle.SWC2},
		}}}}
	if err := s.Store().UploadApp(dep); err != nil {
		t.Fatal(err)
	}
	// Simulate both installed (rows only; no vehicle needed).
	s.Store().tryRecordInstallation(&api.InstalledApp{App: "RemoteControl", Vehicle: "VIN-DEP",
		Plugins: []api.InstalledPlugin{{Plugin: "OP", ECU: vehicle.ECU2, SWC: vehicle.SWC2, Acked: true}}})
	s.Store().tryRecordInstallation(&api.InstalledApp{App: "Analytics", Vehicle: "VIN-DEP",
		Plugins: []api.InstalledPlugin{{Plugin: "Analytics", ECU: vehicle.ECU2, SWC: vehicle.SWC2, Acked: true}}})

	_, err := launch(t, s)(s.Uninstall(api.UninstallRequest{User: "alice", Vehicle: "VIN-DEP", App: "RemoteControl"}))
	if err == nil || !strings.Contains(err.Error(), "dependent apps") {
		t.Fatalf("uninstall: %v", err)
	}
}

func TestRestoreAfterECUReplacement(t *testing.T) {
	s := newServerWithVehicle(t, "VIN-RST")
	if err := s.Store().UploadApp(paperApp(t)); err != nil {
		t.Fatal(err)
	}
	car, eng := connectCar(t, s, "VIN-RST")
	if _, err := launch(t, s)(s.Deploy(api.DeployRequest{User: "alice", Vehicle: "VIN-RST", App: "RemoteControl"})); err != nil {
		t.Fatal(err)
	}
	pumpUntil(t, eng, func() bool { return s.Status("VIN-RST", "RemoteControl").Complete() })

	// "Replace" ECU2: wipe its plug-in population.
	if err := car.SWC2PIRTE.Uninstall("OP"); err != nil {
		t.Fatal(err)
	}
	if _, ok := car.SWC2PIRTE.Plugin("OP"); ok {
		t.Fatal("OP still present")
	}
	rop, err := launch(t, s)(s.Restore(api.RestoreRequest{User: "alice", Vehicle: "VIN-RST", ECU: vehicle.ECU2}))
	if err != nil {
		t.Fatal(err)
	}
	if rop.Total != 1 {
		t.Fatalf("restored %d plug-ins, want 1 (only OP lives on ECU2)", rop.Total)
	}
	pumpUntil(t, eng, func() bool {
		_, ok := car.SWC2PIRTE.Plugin("OP")
		return ok
	})
	// The restored OP reuses its old port ids: the signal chain works.
	car.ECM.HandleEndpointFrame(vehicle.PhoneEndpoint, "Wheels", -66)
	pumpUntil(t, eng, func() bool { return car.Dynamics.WheelAngle() == -66 })
}

func TestDeployRefusalPaths(t *testing.T) {
	s := newServerWithVehicle(t, "VIN-R")
	if _, err := s.Deploy(api.DeployRequest{User: "alice", Vehicle: "VIN-R", App: "Nope"}); err == nil {
		t.Fatal("unknown app accepted")
	}
	if _, err := s.Deploy(api.DeployRequest{User: "alice", Vehicle: "NoVehicle", App: "Nope"}); err == nil {
		t.Fatal("unknown vehicle accepted")
	}
	if err := s.Store().UploadApp(paperApp(t)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Deploy(api.DeployRequest{User: "mallory", Vehicle: "VIN-R", App: "RemoteControl"}); err == nil {
		t.Fatal("foreign user accepted")
	}
	// Vehicle not connected: push fails, installation rolled back.
	if _, err := launch(t, s)(s.Deploy(api.DeployRequest{User: "alice", Vehicle: "VIN-R", App: "RemoteControl"})); err == nil ||
		!strings.Contains(err.Error(), "not connected") {
		t.Fatalf("offline push: %v", err)
	}
	if _, ok := s.Store().InstalledApp("VIN-R", "RemoteControl"); ok {
		t.Fatal("failed deploy left a row")
	}
}

func TestOpStatusString(t *testing.T) {
	st := api.OpStatus{App: "A", Total: 2, Acked: 2}
	if !st.Complete() {
		t.Fatal("complete status not complete")
	}
	st.Failures = append(st.Failures, "x")
	if st.Complete() {
		t.Fatal("failed status complete")
	}
	_ = fmt.Sprintf("%+v", st)
}
