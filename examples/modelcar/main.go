// Modelcar replays the paper's section 4 end to end: a trusted server, a
// two-ECU model car whose ECM dials the server, a smart phone endpoint,
// and the two-plug-in remote control application (COM on the ECM ECU, OP
// on the actuation ECU) deployed through the full pipeline — user setup,
// uploads, compatibility check, context generation, push, acks — and then
// driven from the phone.
//
// Run with: go run ./examples/modelcar
package main

import (
	"fmt"
	"log"
	"net"
	"time"

	"dynautosar/internal/api"
	"dynautosar/internal/fes"
	"dynautosar/internal/plugin"
	"dynautosar/internal/server"
	"dynautosar/internal/sim"
	"dynautosar/internal/vehicle"
)

func main() {
	// --- Off-board: the trusted server --------------------------------
	srv := server.New()
	must(srv.Store().AddUser("alice"))

	// --- The vehicle (paper Figure 3) ----------------------------------
	eng := sim.NewEngine()
	car, err := vehicle.NewModelCar(eng, "VIN-DEMO")
	must(err)
	fmt.Println(car)

	// OEM upload: the vehicle's HW conf + SystemSW conf.
	must(srv.Store().BindVehicle("alice", car.Conf()))

	// External world: the smart phone of the example.
	dir := fes.NewDirectory()
	phone := fes.NewEndpoint(vehicle.PhoneEndpoint)
	dir.Register(phone)
	car.ECM.SetDialer(dir)

	// The ECM dials the server (vehicles dial out; no inbound firewall
	// holes on the embedded side).
	vehicleSide, serverSide := net.Pipe()
	go srv.Pusher().ServeConn(serverSide)
	must(car.ECM.ConnectServer(vehicleSide, car.ID))
	waitFor(func() bool { return srv.Pusher().Connected(car.ID) })

	// Developer upload: the RemoteControl app = COM + OP binaries and the
	// SW conf describing their distribution and port connections.
	com, op, err := vehicle.PaperBinaries()
	must(err)
	app := api.App{
		Name:     "RemoteControl",
		Binaries: []plugin.Binary{com, op},
		Confs: []api.SWConf{{
			Model: "modelcar-v1",
			Deployments: []api.Deployment{
				{Plugin: "COM", ECU: vehicle.ECU1, SWC: vehicle.SWC1,
					Connections: []api.PortConnection{
						{Port: "WheelsExt", External: &api.ExternalSpec{Endpoint: vehicle.PhoneEndpoint, MessageID: "Wheels"}},
						{Port: "SpeedExt", External: &api.ExternalSpec{Endpoint: vehicle.PhoneEndpoint, MessageID: "Speed"}},
						{Port: "WheelsFwd", RemotePlugin: "OP", RemotePort: "WheelsIn"},
						{Port: "SpeedFwd", RemotePlugin: "OP", RemotePort: "SpeedIn"},
					}},
				{Plugin: "OP", ECU: vehicle.ECU2, SWC: vehicle.SWC2,
					Connections: []api.PortConnection{
						{Port: "WheelsOut", Virtual: "WheelsReq"},
						{Port: "SpeedOut", Virtual: "SpeedReq"},
					}},
			},
		}},
	}
	must(srv.Store().UploadApp(app))

	// User triggers installation through the server.
	fmt.Println("deploying RemoteControl ...")
	deploy, err := srv.Deploy(api.DeployRequest{User: "alice", Vehicle: car.ID, App: "RemoteControl"})
	must(err)
	pump(eng, func() bool { return settled(srv, deploy.ID) })

	// Show the server-generated contexts — they match the paper verbatim.
	comPl, _ := car.ECM.Plugin("COM")
	opPl, _ := car.SWC2PIRTE.Plugin("OP")
	fmt.Printf("  COM PLC: %s\n", comPl.Pkg.Context.PLC)
	fmt.Printf("  COM ECC: %s\n", comPl.Pkg.Context.ECC)
	fmt.Printf("  OP  PLC: %s\n", opPl.Pkg.Context.PLC)

	// --- Drive the car from the phone ----------------------------------
	waitFor(func() bool { return phone.Connections() > 0 })
	fmt.Println("phone: Wheels = 42")
	must(phone.Send("Wheels", 42))
	pump(eng, func() bool { return car.Dynamics.WheelAngle() == 42 })
	fmt.Printf("  wheel servo now at %d\n", car.Dynamics.WheelAngle())

	fmt.Println("phone: Speed = 800")
	must(phone.Send("Speed", 800))
	pump(eng, func() bool { return car.Dynamics.Speed() > 750 })
	fmt.Printf("  drive train settled at %d mm/s after %v of simulated time\n",
		car.Dynamics.Speed(), eng.Now())

	// --- Life cycle: uninstall ----------------------------------------
	fmt.Println("uninstalling RemoteControl ...")
	uninstall, err := srv.Uninstall(api.UninstallRequest{User: "alice", Vehicle: car.ID, App: "RemoteControl"})
	must(err)
	pump(eng, func() bool { return settled(srv, uninstall.ID) })
	fmt.Printf("  SW-C2 plug-ins left: %d\n", len(car.SWC2PIRTE.Installed()))
	fmt.Println("done")
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}

// settled reports whether an operation reached its terminal state,
// ending the program if that state is a failure.
func settled(srv *server.Server, id string) bool {
	op, _ := srv.Operation(id)
	if op.State == api.StateFailed {
		log.Fatalf("operation %s failed: %v %v", id, op.Error, op.Failures)
	}
	return op.Done
}

func waitFor(cond func() bool) {
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			log.Fatal("timed out")
		}
		time.Sleep(time.Millisecond)
	}
}

// pump advances simulated time until cond holds.
func pump(eng *sim.Engine, cond func() bool) {
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			log.Fatal("simulation condition not reached")
		}
		eng.RunFor(10 * sim.Millisecond)
		time.Sleep(100 * time.Microsecond)
	}
}
