package server

import (
	"testing"

	"dynautosar/internal/api"
	"dynautosar/internal/core"
	"dynautosar/internal/plugin"
	"dynautosar/internal/sim"
	"dynautosar/internal/vehicle"
	"dynautosar/internal/vm"
)

// Two plug-ins deployed to the same SW-C and connected to each other must
// be linked directly in the PIRTE (paper section 3.1.2: "In the case of
// two plug-ins being located on the same SW-C, their ports are linked
// directly"), i.e. the generator emits LinkPeer posts instead of routing
// through the type II mux.
func TestContextGenPeerLinkSameSWC(t *testing.T) {
	mk := func(src string) plugin.Binary {
		prog, err := vm.Assemble(src)
		if err != nil {
			t.Fatal(err)
		}
		bin, err := plugin.FromProgram(prog, plugin.Manifest{Developer: "peer"})
		if err != nil {
			t.Fatal(err)
		}
		return bin
	}
	producer := mk(`
.plugin Producer 1.0
.port tick required
.port feed provided
on_message tick:
	ARG
	PWR feed
	RET
`)
	consumer := mk(`
.plugin Consumer 1.0
.port feed required
.port result provided
on_message feed:
	ARG
	PWR result
	RET
`)
	app := api.App{
		Name:     "Pair",
		Binaries: []plugin.Binary{producer, consumer},
		Confs: []api.SWConf{{
			Model: "modelcar-v1",
			Deployments: []api.Deployment{
				{Plugin: "Producer", ECU: vehicle.ECU1, SWC: vehicle.SWC1,
					Connections: []api.PortConnection{
						{Port: "feed", RemotePlugin: "Consumer", RemotePort: "feed"},
					}},
				{Plugin: "Consumer", ECU: vehicle.ECU1, SWC: vehicle.SWC1},
			},
		}},
	}
	s := newServerWithVehicle(t, "VIN-PEER")
	vr, _ := s.Store().Vehicle("VIN-PEER")
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
	prod := contexts["Producer"]
	cons := contexts["Consumer"]
	feedOut, _ := prod.PIC.Lookup("feed")
	feedIn, _ := cons.PIC.Lookup("feed")
	post, ok := prod.PLC.Lookup(feedOut)
	if !ok || post.Kind != core.LinkPeer || post.Peer != feedIn {
		t.Fatalf("producer feed post = %+v, want peer link to %s", post, feedIn)
	}
	// Ids are SW-C-scope unique across both plug-ins.
	seen := make(map[core.PluginPortID]bool)
	for _, pic := range []core.PIC{prod.PIC, cons.PIC} {
		for _, e := range pic {
			if seen[e.ID] {
				t.Fatalf("port id %s assigned twice on one SW-C", e.ID)
			}
			seen[e.ID] = true
		}
	}
	// The pair must actually install and route on a live PIRTE: the
	// install order puts the peer target first.
	eng, car := newCarForPeers(t)
	for _, d := range order {
		pkg := plugin.Package{}
		bin, _ := app.Binary(d.Plugin)
		pkg.Binary = bin
		pkg.Context = *contexts[d.Plugin]
		if err := car.ECM.Install(pkg); err != nil {
			t.Fatalf("installing %s: %v", d.Plugin, err)
		}
	}
	tick, _ := prod.PIC.Lookup("tick")
	if err := car.ECM.DeliverToPlugin(tick, 123); err != nil {
		t.Fatal(err)
	}
	eng.RunFor(100_000)
	result, _ := cons.PIC.Lookup("result")
	if v, ok := car.ECM.DirectRead(result); !ok || v != 123 {
		t.Fatalf("peer chain result = %v %v", v, ok)
	}
}

func newCarForPeers(t *testing.T) (*sim.Engine, *vehicle.ModelCar) {
	t.Helper()
	eng := sim.NewEngine()
	c, err := vehicle.NewModelCar(eng, "VIN-PEER-LIVE")
	if err != nil {
		t.Fatal(err)
	}
	return eng, c
}
