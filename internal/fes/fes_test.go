package fes

import (
	"net"
	"testing"
	"time"

	"dynautosar/internal/api"
	"dynautosar/internal/core"
	"dynautosar/internal/plugin"
	"dynautosar/internal/server"
	"dynautosar/internal/sim"
	"dynautosar/internal/vehicle"
	"dynautosar/internal/vm"
)

// buildApp assembles a one-plugin app deployed to the ECM SW-C.
func buildApp(t *testing.T, name core.AppName, src string, external bool, conns []api.PortConnection) api.App {
	t.Helper()
	prog, err := vm.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	bin, err := plugin.FromProgram(prog, plugin.Manifest{Developer: "fes-test", External: external})
	if err != nil {
		t.Fatal(err)
	}
	return api.App{
		Name:     name,
		Binaries: []plugin.Binary{bin},
		Confs: []api.SWConf{{
			Model: "modelcar-v1",
			Deployments: []api.Deployment{{
				Plugin: bin.Manifest.Name, ECU: vehicle.ECU1, SWC: vehicle.SWC1,
				Connections: conns,
			}},
		}},
	}
}

// connectVehicle builds a model car wired to the server and directory.
func connectVehicle(t *testing.T, s *server.Server, dir *Directory, id core.VehicleID) (*vehicle.ModelCar, *sim.Engine) {
	t.Helper()
	eng := sim.NewEngine()
	car, err := vehicle.NewModelCar(eng, id)
	if err != nil {
		t.Fatal(err)
	}
	car.ECM.SetDialer(dir)
	vehicleSide, serverSide := net.Pipe()
	go s.Pusher().ServeConn(serverSide)
	if err := car.ECM.ConnectServer(vehicleSide, id); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for !s.Pusher().Connected(id) {
		if time.Now().After(deadline) {
			t.Fatal("vehicle never registered")
		}
		time.Sleep(time.Millisecond)
	}
	return car, eng
}

func pump(t *testing.T, engines []*sim.Engine, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached")
		}
		for _, e := range engines {
			e.RunFor(10 * sim.Millisecond)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// deploy starts alice's deployment of app on vehicle and pumps the
// engines until the operation settles; a launch error or a nack fails
// the test.
func deploy(t *testing.T, s *server.Server, engines []*sim.Engine, vehicle core.VehicleID, app core.AppName) {
	t.Helper()
	op, err := s.Deploy(api.DeployRequest{User: "alice", Vehicle: vehicle, App: app})
	if err != nil {
		t.Fatal(err)
	}
	pump(t, engines, func() bool {
		op, _ = s.Operation(op.ID)
		return op.Done
	})
	if op.State != api.StateSucceeded {
		t.Fatalf("deploy of %s on %s = %+v", app, vehicle, op)
	}
}

func setupUserVehicle(t *testing.T, s *server.Server, ids ...core.VehicleID) {
	t.Helper()
	if err := s.Store().AddUser("alice"); err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		ecmCfg := vehicle.ECMConfig()
		swc2Cfg := vehicle.SWC2Config()
		conf := core.VehicleConf{
			Vehicle: id, Model: "modelcar-v1",
			SWCs: []core.SWCConf{
				{ECU: vehicle.ECU1, SWC: vehicle.SWC1, MemoryQuota: ecmCfg.MemoryQuota,
					MaxPlugins: ecmCfg.MaxPlugins, ECM: true, VirtualPorts: ecmCfg.VirtualPorts},
				{ECU: vehicle.ECU2, SWC: vehicle.SWC2, MemoryQuota: swc2Cfg.MemoryQuota,
					MaxPlugins: swc2Cfg.MaxPlugins, VirtualPorts: swc2Cfg.VirtualPorts},
			},
		}
		if err := s.Store().BindVehicle("alice", conf); err != nil {
			t.Fatal(err)
		}
	}
}

const phoneAddr = "10.0.0.2:7000"

// echoSrc forwards an externally fed value to an external output.
const echoSrc = `
.plugin Reporter 1.0
.port PokeIn required
.port ShareOut provided
on_message PokeIn:
	ARG
	PWR ShareOut
	RET
`

const listenSrc = `
.plugin Listener 1.0
.port ShareIn required
.port Out provided
on_message ShareIn:
	ARG
	PWR Out
	RET
`

func TestPhoneEndpointDrivesVehicle(t *testing.T) {
	s := server.New()
	setupUserVehicle(t, s, "VIN-P")
	dir := NewDirectory()
	phone := NewEndpoint(phoneAddr)
	dir.Register(phone)

	app := buildApp(t, "Echo", `
.plugin Echo 1.0
.port In required
.port Back provided
on_message In:
	ARG
	PUSH 2
	MUL
	PWR Back
	RET
`, true, []api.PortConnection{
		{Port: "In", External: &api.ExternalSpec{Endpoint: phoneAddr, MessageID: "Ping"}},
		{Port: "Back", External: &api.ExternalSpec{Endpoint: phoneAddr, MessageID: "Pong"}},
	})
	if err := s.Store().UploadApp(app); err != nil {
		t.Fatal(err)
	}
	_, eng := connectVehicle(t, s, dir, "VIN-P")
	deploy(t, s, []*sim.Engine{eng}, "VIN-P", "Echo")
	pump(t, []*sim.Engine{eng}, func() bool { return phone.Connections() > 0 })

	// Phone pings; the plug-in doubles and pongs back over the same link.
	if err := phone.Send("Ping", 21); err != nil {
		t.Fatal(err)
	}
	pump(t, []*sim.Engine{eng}, func() bool { return len(phone.Received()) > 0 })
	got := phone.Received()
	if got[0].MessageID != "Pong" || got[0].Value != 42 {
		t.Fatalf("phone received %+v", got)
	}
}

func TestFederationBetweenVehicles(t *testing.T) {
	s := server.New()
	setupUserVehicle(t, s, "VIN-A", "VIN-B")
	dir := NewDirectory()
	phone := NewEndpoint(phoneAddr)
	dir.Register(phone)
	broker := NewBroker(s)
	const brokerAddr = "fes.example.org:9000"
	dir.RegisterBroker(brokerAddr, broker)
	broker.AddLink("SpeedShare", Link{ToVehicle: "VIN-B", ToMessage: "SpeedShare"})

	pubApp := buildApp(t, "Publisher", echoSrc, true, []api.PortConnection{
		{Port: "PokeIn", External: &api.ExternalSpec{Endpoint: phoneAddr, MessageID: "Poke"}},
		{Port: "ShareOut", External: &api.ExternalSpec{Endpoint: brokerAddr, MessageID: "SpeedShare"}},
	})
	subApp := buildApp(t, "Subscriber", listenSrc, true, []api.PortConnection{
		{Port: "ShareIn", External: &api.ExternalSpec{Endpoint: brokerAddr, MessageID: "SpeedShare"}},
	})
	if err := s.Store().UploadApp(pubApp); err != nil {
		t.Fatal(err)
	}
	if err := s.Store().UploadApp(subApp); err != nil {
		t.Fatal(err)
	}

	carA, engA := connectVehicle(t, s, dir, "VIN-A")
	carB, engB := connectVehicle(t, s, dir, "VIN-B")
	engines := []*sim.Engine{engA, engB}

	deploy(t, s, engines, "VIN-A", "Publisher")
	deploy(t, s, engines, "VIN-B", "Subscriber")
	if !s.Status("VIN-A", "Publisher").Complete() || !s.Status("VIN-B", "Subscriber").Complete() {
		t.Fatal("settled deployments not complete on the status surface")
	}

	// The phone pokes vehicle A; A publishes to the federation; the broker
	// relays through the server into vehicle B's Listener plug-in.
	pump(t, engines, func() bool { return phone.Connections() > 0 })
	if err := phone.Send("Poke", 88); err != nil {
		t.Fatal(err)
	}
	pump(t, engines, func() bool {
		lst, ok := carB.ECM.Plugin("Listener")
		if !ok {
			return false
		}
		outID, _ := lst.Pkg.Context.PIC.Lookup("Out")
		v, ok := carB.ECM.DirectRead(outID)
		return ok && v == 88
	})
	if broker.RelayedCount() != 1 {
		t.Fatalf("Relayed = %d", broker.RelayedCount())
	}
	// A's Reporter really ran (not a shortcut through the broker).
	rep, _ := carA.ECM.Plugin("Reporter")
	if act, _, _ := rep.Stats(); act == 0 {
		t.Fatal("Reporter never activated")
	}
}

func TestBrokerUnknownSubscriberIsSafe(t *testing.T) {
	s := server.New()
	broker := NewBroker(s)
	broker.AddLink("X", Link{ToVehicle: "ghost", ToMessage: "X"})
	broker.Publish("X", 1) // must not panic or relay
	if broker.RelayedCount() != 0 {
		t.Fatalf("Relayed = %d", broker.RelayedCount())
	}
}

func TestDirectoryUnknownEndpoint(t *testing.T) {
	dir := NewDirectory()
	if _, err := dir.Dial("nowhere:1"); err == nil {
		t.Fatal("unknown endpoint dialed")
	}
}

func TestEndpointSendWithoutConnections(t *testing.T) {
	e := NewEndpoint("x:1")
	if err := e.Send("m", 1); err == nil {
		t.Fatal("send without connections succeeded")
	}
}
