package vehicle

import (
	"fmt"

	"dynautosar/internal/core"
	"dynautosar/internal/pirte"
	"dynautosar/internal/sim"
	"dynautosar/internal/vfb"
)

// The model car of the paper's section 4: two ECUs on one CAN bus. ECU1
// carries the ECM SW-C (SW-C1) where the COM plug-in will live; ECU2
// carries SW-C2 where the OP plug-in will live, plus the built-in CarCtrl
// software driving the simulated hardware.
//
// Port map (fixed by the OEM at design time; the SystemSW conf uploads
// exactly this):
//
//	SW-C1 (ECM, ECU1):  S0 type II provided  -> SW-C2 S2
//	                    S1 type II required  <- SW-C2 S3
//	                    S2 type I  provided  -> SW-C2 S0   (packages)
//	                    S3 type I  required  <- SW-C2 S1   (acks)
//	                    V0 = mux out (type II), V1 = mux in (type II)
//	SW-C2 (ECU2):       S0 type I  required, S1 type I provided
//	                    S2 type II required, S3 type II provided
//	                    S4 type III provided WheelsReq  (V4, i16be)
//	                    S5 type III provided SpeedReq   (V5, i16be)
//	                    S6 type III required SpeedProv  (V6, i16be)
//	                    V3 = mux in (type II)
//
// V6 is deliberately left unused by the OP plug-in — the paper points it
// out as an OEM-provisioned port for future plug-ins.

// Identities of the model car platform.
const (
	ECU1 core.ECUID = "ECU1"
	ECU2 core.ECUID = "ECU2"
	SWC1 core.SWCID = "SW-C1"
	SWC2 core.SWCID = "SW-C2"
)

// ECMConfig returns the PIRTE configuration of SW-C1.
func ECMConfig() pirte.Config {
	return pirte.Config{
		ECU: ECU1,
		SWC: SWC1,
		SWCPorts: []core.SWCPortSpec{
			{ID: 0, Type: core.TypeII, Direction: core.Provided},
			{ID: 1, Type: core.TypeII, Direction: core.Required},
			{ID: 2, Type: core.TypeI, Direction: core.Provided},
			{ID: 3, Type: core.TypeI, Direction: core.Required},
		},
		VirtualPorts: []core.VirtualPortSpec{
			{ID: 0, SWCPort: 0, Type: core.TypeII, Direction: core.Provided, Name: "MuxOut"},
			{ID: 1, SWCPort: 1, Type: core.TypeII, Direction: core.Required, Name: "MuxIn"},
		},
		MemoryQuota:      1024,
		MaxPlugins:       8,
		DispatchPriority: 1,
	}
}

// SWC2Config returns the PIRTE configuration of SW-C2.
func SWC2Config() pirte.Config {
	return pirte.Config{
		ECU: ECU2,
		SWC: SWC2,
		SWCPorts: []core.SWCPortSpec{
			{ID: 0, Type: core.TypeI, Direction: core.Required},
			{ID: 1, Type: core.TypeI, Direction: core.Provided},
			{ID: 2, Type: core.TypeII, Direction: core.Required},
			{ID: 3, Type: core.TypeII, Direction: core.Provided},
			{ID: 4, Type: core.TypeIII, Direction: core.Provided, Signal: "WheelsReq"},
			{ID: 5, Type: core.TypeIII, Direction: core.Provided, Signal: "SpeedReq"},
			{ID: 6, Type: core.TypeIII, Direction: core.Required, Signal: "SpeedProv"},
		},
		VirtualPorts: []core.VirtualPortSpec{
			{ID: 3, SWCPort: 2, Type: core.TypeII, Direction: core.Required, Name: "Mux"},
			{ID: 7, SWCPort: 3, Type: core.TypeII, Direction: core.Provided, Name: "MuxOut"},
			{ID: 4, SWCPort: 4, Type: core.TypeIII, Direction: core.Provided, Name: "WheelsReq", Format: pirte.FormatI16},
			{ID: 5, SWCPort: 5, Type: core.TypeIII, Direction: core.Provided, Name: "SpeedReq", Format: pirte.FormatI16},
			{ID: 6, SWCPort: 6, Type: core.TypeIII, Direction: core.Required, Name: "SpeedProv", Format: pirte.FormatI16},
		},
		MemoryQuota:      1024,
		MaxPlugins:       8,
		DispatchPriority: 1,
	}
}

// ModelCar is the assembled two-ECU platform.
type ModelCar struct {
	*Vehicle
	Dynamics *CarDynamics
	// SWC2PIRTE is the plug-in runtime on ECU2.
	SWC2PIRTE *pirte.PIRTE
}

// carCtrl builds the built-in CarCtrl component on ECU2: it applies wheel
// and speed requests to the IoHwAb channels of the car's dynamics and
// publishes the measured speed.
func carCtrl(dyn *CarDynamics) vfb.ComponentType {
	sr := func(name string) vfb.Interface {
		return vfb.Interface{Name: name, Kind: vfb.SenderReceiver, MaxLen: 8}
	}
	return vfb.ComponentType{
		Name: "CarCtrl",
		Ports: []vfb.PortDef{
			{Name: "WheelsIn", Direction: core.Required, Iface: sr("WheelsReq")},
			{Name: "SpeedIn", Direction: core.Required, Iface: sr("SpeedReq")},
			{Name: "SpeedOut", Direction: core.Provided, Iface: sr("SpeedProv")},
		},
		Runnables: []vfb.RunnableSpec{
			{
				Name: "onWheels", OnData: []string{"WheelsIn"}, Priority: 5,
				Entry: func(rt vfb.Runtime) {
					if data, ok := rt.Read("WheelsIn"); ok && len(data) >= 2 {
						v := int64(int16(uint16(data[0])<<8 | uint16(data[1])))
						dyn.wheels.Write(v)
					}
				},
			},
			{
				Name: "onSpeed", OnData: []string{"SpeedIn"}, Priority: 5,
				Entry: func(rt vfb.Runtime) {
					if data, ok := rt.Read("SpeedIn"); ok && len(data) >= 2 {
						v := int64(int16(uint16(data[0])<<8 | uint16(data[1])))
						dyn.speedAct.Write(v)
					}
				},
			},
			{
				Name: "pubSpeed", Period: 50 * sim.Millisecond, Priority: 4,
				Entry: func(rt vfb.Runtime) {
					v := dyn.speedSense.Read()
					_ = rt.Write("SpeedOut", []byte{byte(uint16(v) >> 8), byte(uint16(v))})
				},
			},
		},
	}
}

// NewModelCar assembles the paper's platform on the engine.
func NewModelCar(eng *sim.Engine, id core.VehicleID) (*ModelCar, error) {
	v := New(eng, id, "modelcar-v1", 500_000)
	e1, err := v.AddECU(ECU1)
	if err != nil {
		return nil, err
	}
	e2, err := v.AddECU(ECU2)
	if err != nil {
		return nil, err
	}

	car := &ModelCar{Vehicle: v}

	// Hardware model on ECU2.
	dyn, err := NewCarDynamics(e2.IoHwAb)
	if err != nil {
		return nil, err
	}
	car.Dynamics = dyn
	dyn.Start(eng)

	// Plug-in SW-Cs.
	gateway, err := e1.HostECM(ECMConfig())
	if err != nil {
		return nil, err
	}
	v.SetECM(gateway, ECU1)
	p2, err := e2.HostPIRTE(SWC2Config())
	if err != nil {
		return nil, err
	}
	car.SWC2PIRTE = p2

	// Built-in software on ECU2.
	if err := e2.RTE.AddComponent("CarCtrl", carCtrl(dyn)); err != nil {
		return nil, err
	}
	if err := e2.RTE.Connect(string(SWC2), "S4", "CarCtrl", "WheelsIn"); err != nil {
		return nil, err
	}
	if err := e2.RTE.Connect(string(SWC2), "S5", "CarCtrl", "SpeedIn"); err != nil {
		return nil, err
	}
	if err := e2.RTE.Connect("CarCtrl", "SpeedOut", string(SWC2), "S6"); err != nil {
		return nil, err
	}

	// Fault protection on the critical signals (paper section 3.1.1).
	if err := p2.AddMonitor(4, &pirte.RangeMonitor{Min: -300, Max: 300, Clamp: true}); err != nil {
		return nil, err
	}
	if err := p2.AddMonitor(5, &pirte.RangeMonitor{Min: 0, Max: 2000, Clamp: true}); err != nil {
		return nil, err
	}

	// Cross-ECU links (type I pair, then type II pair).
	if err := v.ConnectSWCs(ECU1, SWC1, 2, ECU2, SWC2, 0); err != nil {
		return nil, err
	}
	if err := v.ConnectSWCs(ECU2, SWC2, 1, ECU1, SWC1, 3); err != nil {
		return nil, err
	}
	if err := v.ConnectSWCs(ECU1, SWC1, 0, ECU2, SWC2, 2); err != nil {
		return nil, err
	}
	if err := v.ConnectSWCs(ECU2, SWC2, 3, ECU1, SWC1, 1); err != nil {
		return nil, err
	}

	// The ECM reaches SW-C2 through its type I provided port S2.
	gateway.AddRoute(ECU2, SWC2, 2)

	// Vehicle configuration for the trusted server.
	ecmCfg := ECMConfig()
	v.RecordSWCConf(core.SWCConf{
		ECU: ECU1, SWC: SWC1, MemoryQuota: ecmCfg.MemoryQuota,
		MaxPlugins: ecmCfg.MaxPlugins, ECM: true, VirtualPorts: ecmCfg.VirtualPorts,
	})
	swc2Cfg := SWC2Config()
	v.RecordSWCConf(core.SWCConf{
		ECU: ECU2, SWC: SWC2, MemoryQuota: swc2Cfg.MemoryQuota,
		MaxPlugins: swc2Cfg.MaxPlugins, VirtualPorts: swc2Cfg.VirtualPorts,
	})
	if err := v.Conf().Validate(); err != nil {
		return nil, fmt.Errorf("vehicle: model car conf: %v", err)
	}

	if err := v.Start(); err != nil {
		return nil, err
	}
	return car, nil
}
