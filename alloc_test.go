package dynautosar

import (
	"bytes"
	"io"
	"sync"
	"testing"

	"dynautosar/internal/ecm"
	"dynautosar/internal/sim"
	"dynautosar/internal/vehicle"
)

// TestAllocFreeFig3Chain pins the complete Figure 3 signal chain —
// phone frame through COM, CAN, the plug-in VMs and back to the
// built-in actuator software — at zero heap allocations per command in
// steady state. The chain crosses every hot layer: ECM endpoint
// demux, RTE last-value ports (reused buffers), ISO-TP reassembly
// (pooled assemblies), OSEK dispatch (pooled activations + pre-bound
// completion closures) and the fused VM interpreter.
func TestAllocFreeFig3Chain(t *testing.T) {
	car, eng := fig3Car(t)

	want := int64(0)
	send := func() {
		want = (want+1)%200 - 100
		car.ECM.HandleEndpointFrame(vehicle.PhoneEndpoint, "Wheels", want)
		for car.Dynamics.WheelAngle() != want {
			eng.RunFor(sim.Millisecond)
		}
	}
	// Warm every pool on the path: engine events, OSEK activations,
	// transport assemblies, RTE last-value buffers.
	for i := 0; i < 3; i++ {
		send()
	}
	if allocs := testing.AllocsPerRun(100, send); allocs != 0 {
		t.Errorf("Fig3 signal chain: %v allocs/op in steady state, want 0", allocs)
	}
}

// fig3Car assembles the model car with both plug-ins installed through
// the ECM, ready to receive phone messages.
func fig3Car(b testing.TB) (*vehicle.ModelCar, *sim.Engine) {
	b.Helper()
	eng := sim.NewEngine()
	car, err := vehicle.NewModelCar(eng, "VIN-BENCH")
	if err != nil {
		b.Fatal(err)
	}
	car.ECM.SetDialer(ecm.DialerFunc(func(string) (io.ReadWriteCloser, error) {
		return &sinkConn{}, nil
	}))
	if err := car.ECM.ConnectServer(&sinkConn{}, car.ID); err != nil {
		b.Fatal(err)
	}
	opPkg, err := vehicle.OPPackage()
	if err != nil {
		b.Fatal(err)
	}
	comPkg, err := vehicle.COMPackage()
	if err != nil {
		b.Fatal(err)
	}
	opMsg, err := vehicle.InstallMessage(opPkg, vehicle.ECU2, vehicle.SWC2, 1)
	if err != nil {
		b.Fatal(err)
	}
	comMsg, err := vehicle.InstallMessage(comPkg, vehicle.ECU1, vehicle.SWC1, 2)
	if err != nil {
		b.Fatal(err)
	}
	car.ECM.HandleServerMessage(opMsg)
	car.ECM.HandleServerMessage(comMsg)
	eng.RunFor(time500ms)
	if _, ok := car.SWC2PIRTE.Plugin("OP"); !ok {
		b.Fatal("OP not installed")
	}
	return car, eng
}

const time500ms = 500 * sim.Millisecond

// sinkConn swallows everything the vehicle sends to the server and the
// phone endpoint.
type sinkConn struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (c *sinkConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.buf.Write(p)
}
func (c *sinkConn) Read(p []byte) (int, error) { return 0, io.EOF }
func (c *sinkConn) Close() error               { return nil }
