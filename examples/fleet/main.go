// Fleet demonstrates a federated embedded system (paper section 1): two
// vehicles cooperate through the trusted server. Vehicle A publishes its
// measured speed to a federation broker; vehicle B subscribes and feeds
// the value into a convoy-assist plug-in that adjusts its own speed
// request — an FES built purely from plug-ins, without touching the
// vehicles' built-in software.
//
// Run with: go run ./examples/fleet
package main

import (
	"fmt"
	"log"
	"net"
	"time"

	"dynautosar/internal/api"
	"dynautosar/internal/core"
	"dynautosar/internal/fes"
	"dynautosar/internal/plugin"
	"dynautosar/internal/server"
	"dynautosar/internal/sim"
	"dynautosar/internal/vehicle"
	"dynautosar/internal/vm"
)

const (
	brokerAddr = "fes.sics.se:9000"
	phoneAddr  = "10.11.12.13:7777"
)

// reporterSrc publishes every poke to the federation.
const reporterSrc = `
.plugin SpeedReporter 1.0
.port SpeedPoke required
.port Publish provided
on_message SpeedPoke:
	ARG
	PWR Publish
	RET
`

// convoySrc receives the leader's speed and requests 90% of it on its own
// SpeedReq virtual port (deployed on SW-C2 so it can reach the hardware).
const convoySrc = `
.plugin ConvoyAssist 1.0
.port LeaderSpeed required
.port SpeedOut provided
on_message LeaderSpeed:
	ARG
	PUSH 9
	MUL
	PUSH 10
	DIV
	PWR SpeedOut
	RET
`

func main() {
	srv := server.New()
	must(srv.Store().AddUser("fleet-op"))

	dir := fes.NewDirectory()
	phone := fes.NewEndpoint(phoneAddr)
	dir.Register(phone)
	broker := fes.NewBroker(srv)
	dir.RegisterBroker(brokerAddr, broker)

	// Two model cars, one engine each.
	engA := sim.NewEngine()
	carA, err := vehicle.NewModelCar(engA, "VIN-LEADER")
	must(err)
	engB := sim.NewEngine()
	carB, err := vehicle.NewModelCar(engB, "VIN-FOLLOWER")
	must(err)
	engines := []*sim.Engine{engA, engB}

	for _, car := range []*vehicle.ModelCar{carA, carB} {
		must(srv.Store().BindVehicle("fleet-op", car.Conf()))
		car.ECM.SetDialer(dir)
		vehicleSide, serverSide := net.Pipe()
		go srv.Pusher().ServeConn(serverSide)
		must(car.ECM.ConnectServer(vehicleSide, car.ID))
	}
	waitFor(func() bool {
		return srv.Pusher().Connected("VIN-LEADER") && srv.Pusher().Connected("VIN-FOLLOWER")
	})

	// Federation wiring: leader's published speed reaches the follower.
	broker.AddLink("FleetSpeed", fes.Link{ToVehicle: "VIN-FOLLOWER", ToMessage: "FleetSpeed"})

	// Apps.
	pub := oneShotApp("LeaderPublisher", reporterSrc, vehicle.ECU1, vehicle.SWC1,
		[]server.PortConnection{
			{Port: "SpeedPoke", External: &server.ExternalSpec{Endpoint: phoneAddr, MessageID: "SetSpeed"}},
			{Port: "Publish", External: &server.ExternalSpec{Endpoint: brokerAddr, MessageID: "FleetSpeed"}},
		})
	sub := oneShotApp("ConvoyFollower", convoySrc, vehicle.ECU2, vehicle.SWC2,
		[]server.PortConnection{
			{Port: "LeaderSpeed", External: &server.ExternalSpec{Endpoint: brokerAddr, MessageID: "FleetSpeed"}},
			{Port: "SpeedOut", Virtual: "SpeedReq"},
		})
	must(srv.Store().UploadApp(pub))
	must(srv.Store().UploadApp(sub))

	fmt.Println("deploying fleet apps ...")
	lead, err := srv.Deploy(api.DeployRequest{User: "fleet-op", Vehicle: "VIN-LEADER", App: "LeaderPublisher"})
	must(err)
	follow, err := srv.Deploy(api.DeployRequest{User: "fleet-op", Vehicle: "VIN-FOLLOWER", App: "ConvoyFollower"})
	must(err)
	pump(engines, func() bool { return settled(srv, lead.ID) && settled(srv, follow.ID) })

	// The operator's phone sets the leader's fleet speed; the federation
	// relays it and the follower's convoy assist requests 90% of it.
	waitFor(func() bool { return phone.Connections() > 0 })
	fmt.Println("phone: SetSpeed = 1000 on the leader")
	must(phone.Send("SetSpeed", 1000))
	pump(engines, func() bool { return carB.Dynamics.Speed() > 850 })
	fmt.Printf("  leader published; broker relayed %d message(s)\n", broker.RelayedCount())
	fmt.Printf("  follower drive train at %d mm/s (command was 90%% of 1000)\n",
		carB.Dynamics.Speed())
	fmt.Println("done")
}

// oneShotApp wraps one plug-in source into an app for the model car.
func oneShotApp(name core.AppName, src string, ecuID core.ECUID, swcID core.SWCID,
	conns []server.PortConnection) server.App {
	prog, err := vm.Assemble(src)
	must(err)
	bin, err := plugin.FromProgram(prog, plugin.Manifest{Developer: "fleet", External: true})
	must(err)
	return server.App{
		Name:     name,
		Binaries: []plugin.Binary{bin},
		Confs: []server.SWConf{{
			Model: "modelcar-v1",
			Deployments: []server.Deployment{{
				Plugin: bin.Manifest.Name, ECU: ecuID, SWC: swcID, Connections: conns,
			}},
		}},
	}
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

func pump(engines []*sim.Engine, cond func() bool) {
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			log.Fatal("simulation condition not reached")
		}
		for _, e := range engines {
			e.RunFor(10 * sim.Millisecond)
		}
		time.Sleep(100 * time.Microsecond)
	}
}
