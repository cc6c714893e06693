package rte

import (
	"strings"
	"testing"

	"dynautosar/internal/can"
	"dynautosar/internal/com"
	"dynautosar/internal/core"
	"dynautosar/internal/osek"
	"dynautosar/internal/sim"
	"dynautosar/internal/vfb"
)

func sr(maxLen int) vfb.Interface {
	return vfb.Interface{Name: "SR", Kind: vfb.SenderReceiver, MaxLen: maxLen}
}

func newRTE() (*sim.Engine, *RTE) {
	eng := sim.NewEngine()
	k := osek.New(eng, "ECU1")
	return eng, New(k)
}

// producerType writes its payload on "out" every millisecond.
func producerType(payload []byte) vfb.ComponentType {
	return vfb.ComponentType{
		Name:  "Producer",
		Ports: []vfb.PortDef{{Name: "out", Direction: core.Provided, Iface: sr(64)}},
		Runnables: []vfb.RunnableSpec{{
			Name: "tick", Period: sim.Millisecond, Priority: 2,
			Entry: func(rt vfb.Runtime) { _ = rt.Write("out", payload) },
		}},
	}
}

func consumerType(got *[][]byte) vfb.ComponentType {
	return vfb.ComponentType{
		Name:  "Consumer",
		Ports: []vfb.PortDef{{Name: "in", Direction: core.Required, Iface: sr(64)}},
		Runnables: []vfb.RunnableSpec{{
			Name: "onIn", OnData: []string{"in"}, Priority: 1,
			Entry: func(rt vfb.Runtime) {
				if v, ok := rt.Read("in"); ok {
					*got = append(*got, v)
				}
			},
		}},
	}
}

func TestLocalSenderReceiverWithDataTrigger(t *testing.T) {
	eng, r := newRTE()
	var got [][]byte
	if err := r.AddComponent("P", producerType([]byte("v1"))); err != nil {
		t.Fatal(err)
	}
	if err := r.AddComponent("C", consumerType(&got)); err != nil {
		t.Fatal(err)
	}
	if err := r.Connect("P", "out", "C", "in"); err != nil {
		t.Fatal(err)
	}
	eng.RunUntil(sim.Time(3500)) // 3 periods
	if len(got) != 3 {
		t.Fatalf("deliveries = %d, want 3", len(got))
	}
	if string(got[0]) != "v1" {
		t.Fatalf("got[0] = %q", got[0])
	}
	if r.Writes != 3 || r.Deliveries != 3 {
		t.Fatalf("Writes=%d Deliveries=%d", r.Writes, r.Deliveries)
	}
}

func TestLastIsBestSemantics(t *testing.T) {
	eng, r := newRTE()
	recv := vfb.ComponentType{
		Name:  "R",
		Ports: []vfb.PortDef{{Name: "in", Direction: core.Required, Iface: sr(8)}},
	}
	send := vfb.ComponentType{
		Name:  "S",
		Ports: []vfb.PortDef{{Name: "out", Direction: core.Provided, Iface: sr(8)}},
	}
	_ = r.AddComponent("R", recv)
	_ = r.AddComponent("S", send)
	_ = r.Connect("S", "out", "R", "in")
	_ = r.Write("S", "out", []byte{1})
	_ = r.Write("S", "out", []byte{2})
	eng.Run()
	v, fresh := r.Read("R", "in")
	if !fresh || v[0] != 2 {
		t.Fatalf("Read = %v fresh=%v, want last value 2", v, fresh)
	}
	// Second read returns the same value but stale.
	v, fresh = r.Read("R", "in")
	if fresh || v[0] != 2 {
		t.Fatalf("second Read = %v fresh=%v", v, fresh)
	}
}

func TestQueuedPortSemantics(t *testing.T) {
	eng, r := newRTE()
	recv := vfb.ComponentType{
		Name: "R",
		Ports: []vfb.PortDef{
			{Name: "in", Direction: core.Required, Iface: sr(8), QueueLen: 2},
		},
	}
	send := vfb.ComponentType{
		Name:  "S",
		Ports: []vfb.PortDef{{Name: "out", Direction: core.Provided, Iface: sr(8)}},
	}
	_ = r.AddComponent("R", recv)
	_ = r.AddComponent("S", send)
	_ = r.Connect("S", "out", "R", "in")
	for i := byte(1); i <= 3; i++ {
		_ = r.Write("S", "out", []byte{i})
	}
	eng.Run()
	// Queue depth 2: third arrival dropped.
	if v, ok := r.Read("R", "in"); !ok || v[0] != 1 {
		t.Fatalf("first = %v %v", v, ok)
	}
	if v, ok := r.Read("R", "in"); !ok || v[0] != 2 {
		t.Fatalf("second = %v %v", v, ok)
	}
	if _, ok := r.Read("R", "in"); ok {
		t.Fatal("queue should be empty")
	}
	if r.Overruns("R", "in") != 1 {
		t.Fatalf("overruns = %d", r.Overruns("R", "in"))
	}
}

func TestFanOutToMultipleReceivers(t *testing.T) {
	eng, r := newRTE()
	send := vfb.ComponentType{
		Name:  "S",
		Ports: []vfb.PortDef{{Name: "out", Direction: core.Provided, Iface: sr(8)}},
	}
	recv := vfb.ComponentType{
		Name:  "R",
		Ports: []vfb.PortDef{{Name: "in", Direction: core.Required, Iface: sr(8)}},
	}
	_ = r.AddComponent("S", send)
	_ = r.AddComponent("R1", recv)
	_ = r.AddComponent("R2", recv)
	_ = r.Connect("S", "out", "R1", "in")
	_ = r.Connect("S", "out", "R2", "in")
	_ = r.Write("S", "out", []byte{9})
	eng.Run()
	for _, name := range []string{"R1", "R2"} {
		if v, ok := r.Read(name, "in"); !ok || v[0] != 9 {
			t.Fatalf("%s did not receive fan-out", name)
		}
	}
}

func TestClientServerCall(t *testing.T) {
	_, r := newRTE()
	iface := vfb.Interface{Name: "Calc", Kind: vfb.ClientServer, Operations: []string{"Add"}}
	server := vfb.ComponentType{
		Name:  "Server",
		Ports: []vfb.PortDef{{Name: "svc", Direction: core.Provided, Iface: iface}},
		Runnables: []vfb.RunnableSpec{{
			Name: "serve", OnInvoke: []string{"Add"},
			Handler: func(_ vfb.Runtime, op string, arg []byte) ([]byte, error) {
				return []byte{arg[0] + arg[1]}, nil
			},
		}},
	}
	client := vfb.ComponentType{
		Name:  "Client",
		Ports: []vfb.PortDef{{Name: "calc", Direction: core.Required, Iface: iface}},
	}
	if err := r.AddComponent("Server", server); err != nil {
		t.Fatal(err)
	}
	if err := r.AddComponent("Client", client); err != nil {
		t.Fatal(err)
	}
	if err := r.Connect("Server", "svc", "Client", "calc"); err != nil {
		t.Fatal(err)
	}
	res, err := r.Call("Client", "calc", "Add", []byte{2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || res[0] != 5 {
		t.Fatalf("Add = %v", res)
	}
	if _, err := r.Call("Client", "calc", "Sub", nil); err == nil {
		t.Fatal("undeclared operation accepted")
	}
}

func TestConnectValidation(t *testing.T) {
	_, r := newRTE()
	send := vfb.ComponentType{
		Name:  "S",
		Ports: []vfb.PortDef{{Name: "out", Direction: core.Provided, Iface: sr(8)}},
	}
	recv := vfb.ComponentType{
		Name:  "R",
		Ports: []vfb.PortDef{{Name: "in", Direction: core.Required, Iface: sr(8)}},
	}
	_ = r.AddComponent("S", send)
	_ = r.AddComponent("R", recv)
	cases := []struct{ fc, fp, tc, tp string }{
		{"X", "out", "R", "in"},
		{"S", "nope", "R", "in"},
		{"S", "out", "X", "in"},
		{"S", "out", "R", "nope"},
		{"R", "in", "S", "out"}, // wrong directions
	}
	for _, c := range cases {
		if err := r.Connect(c.fc, c.fp, c.tc, c.tp); err == nil {
			t.Errorf("Connect(%v) accepted", c)
		}
	}
}

func TestWriteValidation(t *testing.T) {
	_, r := newRTE()
	send := vfb.ComponentType{
		Name:  "S",
		Ports: []vfb.PortDef{{Name: "out", Direction: core.Provided, Iface: sr(2)}},
	}
	_ = r.AddComponent("S", send)
	if err := r.Write("S", "out", []byte{1, 2, 3}); err == nil || !strings.Contains(err.Error(), "exceed") {
		t.Fatalf("oversized write: %v", err)
	}
	if err := r.Write("X", "out", nil); err == nil {
		t.Fatal("unknown component accepted")
	}
	if err := r.Write("S", "nope", nil); err == nil {
		t.Fatal("unknown port accepted")
	}
	if err := r.AddComponent("S", send); err == nil {
		t.Fatal("duplicate component accepted")
	}
}

func TestCrossECUConnectionOverCAN(t *testing.T) {
	eng := sim.NewEngine()
	bus := can.NewBus(eng, "CAN0", 500_000)
	k1 := osek.New(eng, "ECU1")
	k2 := osek.New(eng, "ECU2")
	r1 := New(k1)
	r2 := New(k2)

	n1 := bus.AttachNode("ECU1")
	n2 := bus.AttachNode("ECU2")
	t12 := com.NewTransport(n1, 0x500, false, can.Filter{ID: 0x501, Mask: ^uint32(0)})
	t21 := com.NewTransport(n2, 0x501, false, can.Filter{ID: 0x500, Mask: ^uint32(0)})

	send := vfb.ComponentType{
		Name:  "S",
		Ports: []vfb.PortDef{{Name: "out", Direction: core.Provided, Iface: sr(0)}},
	}
	var got [][]byte
	recv := consumerType(&got)
	if err := r1.AddComponent("S", send); err != nil {
		t.Fatal(err)
	}
	if err := r2.AddComponent("C", recv); err != nil {
		t.Fatal(err)
	}
	if err := r1.BindNetworkTx("S", "out", t12); err != nil {
		t.Fatal(err)
	}
	if err := r2.BindNetworkRx(t21, "C", "in"); err != nil {
		t.Fatal(err)
	}
	payload := []byte("cross-ecu payload exceeding one CAN frame: 0123456789")
	if err := r1.Write("S", "out", payload); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if len(got) != 1 || string(got[0]) != string(payload) {
		t.Fatalf("cross-ECU delivery = %q", got)
	}
}

func TestAddComposite(t *testing.T) {
	eng, r := newRTE()
	var got [][]byte
	composite := vfb.Composite{
		Name: "App",
		Children: map[string]vfb.ComponentType{
			"prod": producerType([]byte("x")),
			"cons": consumerType(&got),
		},
		Connections: []vfb.CompositeConnection{{From: "prod.out", To: "cons.in"}},
	}
	if err := r.AddComposite(composite); err != nil {
		t.Fatal(err)
	}
	eng.RunUntil(sim.Time(1500))
	if len(got) != 1 {
		t.Fatalf("composite wiring delivered %d", len(got))
	}
	if _, ok := r.Component("App/prod"); !ok {
		t.Fatal("flattened instance missing")
	}
}

func TestRuntimeHandle(t *testing.T) {
	_, r := newRTE()
	send := vfb.ComponentType{
		Name:  "S",
		Ports: []vfb.PortDef{{Name: "out", Direction: core.Provided, Iface: sr(8)}},
	}
	_ = r.AddComponent("S", send)
	rt, err := r.Runtime("S")
	if err != nil {
		t.Fatal(err)
	}
	if rt.Component() != "S" {
		t.Fatalf("Component() = %q", rt.Component())
	}
	if err := rt.Write("out", []byte{1}); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Runtime("X"); err == nil {
		t.Fatal("unknown runtime accepted")
	}
}

// fanOutRig hosts sender S on r1 with local receivers R1 (data-triggered
// consumer) and R2, and binds S.out to a COM transport whose far end
// delivers into consumer C on r2.
type fanOutRig struct {
	eng           *sim.Engine
	r1, r2        *RTE
	local, remote [][]byte
	frames        int
}

func newFanOutRig(t testing.TB) *fanOutRig {
	t.Helper()
	g := &fanOutRig{eng: sim.NewEngine()}
	bus := can.NewBus(g.eng, "CAN0", 500_000)
	bus.Tap(func(can.Frame, sim.Time) { g.frames++ })
	g.r1, g.r2 = New(osek.New(g.eng, "ECU1")), New(osek.New(g.eng, "ECU2"))
	t12 := com.NewTransport(bus.AttachNode("ECU1"), 0x500, false, can.Filter{ID: 0x501, Mask: ^uint32(0)})
	t21 := com.NewTransport(bus.AttachNode("ECU2"), 0x501, false, can.Filter{ID: 0x500, Mask: ^uint32(0)})
	send := vfb.ComponentType{
		Name:  "S",
		Ports: []vfb.PortDef{{Name: "out", Direction: core.Provided, Iface: sr(8)}},
	}
	plain := vfb.ComponentType{
		Name:  "R",
		Ports: []vfb.PortDef{{Name: "in", Direction: core.Required, Iface: sr(8)}},
	}
	for _, err := range []error{
		g.r1.AddComponent("S", send),
		g.r1.AddComponent("R1", consumerType(&g.local)),
		g.r1.AddComponent("R2", plain),
		g.r2.AddComponent("C", consumerType(&g.remote)),
		g.r1.Connect("S", "out", "R1", "in"),
		g.r1.Connect("S", "out", "R2", "in"),
		g.r1.BindNetworkTx("S", "out", t12),
		g.r2.BindNetworkRx(t21, "C", "in"),
	} {
		if err != nil {
			t.Fatal(err)
		}
	}
	return g
}

func TestWriteFansOutToEveryResolvedTarget(t *testing.T) {
	g := newFanOutRig(t)
	if err := g.r1.Write("S", "out", []byte{7}); err != nil {
		t.Fatal(err)
	}
	g.eng.Run()
	if len(g.local) != 1 || g.local[0][0] != 7 {
		t.Fatalf("data-triggered runnable of R1 saw %v", g.local)
	}
	if v, ok := g.r1.Read("R2", "in"); !ok || v[0] != 7 {
		t.Fatalf("R2 read %v, %v", v, ok)
	}
	if g.frames != 1 || len(g.remote) != 1 || g.remote[0][0] != 7 {
		t.Fatalf("COM transport: %d frames, remote runnable saw %v", g.frames, g.remote)
	}
	if g.r1.Writes != 1 || g.r1.Deliveries != 2 || g.r2.Deliveries != 1 {
		t.Fatalf("Writes=%d Deliveries=%d/%d", g.r1.Writes, g.r1.Deliveries, g.r2.Deliveries)
	}
}

func TestConnectAfterWritesReachesHandle(t *testing.T) {
	eng, r := newRTE()
	send := vfb.ComponentType{
		Name:  "S",
		Ports: []vfb.PortDef{{Name: "out", Direction: core.Provided, Iface: sr(8)}},
	}
	recv := vfb.ComponentType{
		Name:  "R",
		Ports: []vfb.PortDef{{Name: "in", Direction: core.Required, Iface: sr(8)}},
	}
	_ = r.AddComponent("S", send)
	_ = r.AddComponent("R1", recv)
	_ = r.AddComponent("R2", recv)
	out, err := r.Port("S", "out")
	if err != nil {
		t.Fatal(err)
	}
	_ = r.Connect("S", "out", "R1", "in")
	if err := out.Write([]byte{1}); err != nil {
		t.Fatal(err)
	}
	if err := r.Write("S", "out", []byte{2}); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if _, ok := r.Read("R2", "in"); ok {
		t.Fatal("R2 received before it was connected")
	}
	// A connection made after the handle was resolved and written
	// through takes effect on the next write, by handle and by name.
	_ = r.Connect("S", "out", "R2", "in")
	if err := out.Write([]byte{3}); err != nil {
		t.Fatal(err)
	}
	if v, ok := r.Read("R2", "in"); !ok || v[0] != 3 {
		t.Fatalf("R2 after Connect: %v, %v", v, ok)
	}
	if err := r.Write("S", "out", []byte{4}); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"R1", "R2"} {
		if v, ok := r.Read(name, "in"); !ok || v[0] != 4 {
			t.Fatalf("%s: %v, %v", name, v, ok)
		}
	}
	if r.Writes != 4 {
		t.Fatalf("Writes = %d", r.Writes)
	}
}

func TestUnknownComponentAndPortErrors(t *testing.T) {
	_, r := newRTE()
	iface := vfb.Interface{Name: "Calc", Kind: vfb.ClientServer, Operations: []string{"Add"}}
	_ = r.AddComponent("S", vfb.ComponentType{
		Name: "S",
		Ports: []vfb.PortDef{
			{Name: "out", Direction: core.Provided, Iface: sr(8)},
			{Name: "in", Direction: core.Required, Iface: sr(8)},
			{Name: "calc", Direction: core.Required, Iface: iface},
		},
	})
	const (
		unknownComp = `rte: unknown component "X"`
		unknownPort = `rte: S has no port "nope"`
	)
	errText := func(err error) string {
		if err == nil {
			return "<nil>"
		}
		return err.Error()
	}
	_, portErr := r.Port("X", "out")
	_, callErr := r.Call("X", "calc", "Add", nil)
	_, runtimeErr := r.Runtime("X")
	for _, c := range []struct {
		what string
		err  error
		want string
	}{
		{"Write", r.Write("X", "out", nil), unknownComp},
		{"Port", portErr, unknownComp},
		{"Call", callErr, unknownComp},
		{"Runtime", runtimeErr, unknownComp},
		{"Write", r.Write("S", "nope", nil), unknownPort},
		{"Port", func() error { _, err := r.Port("S", "nope"); return err }(), unknownPort},
		{"Call", func() error { _, err := r.Call("S", "nope", "Add", nil); return err }(), unknownPort},
		{"Write on required", r.Write("S", "in", nil), "rte: S.in is not a provided sender-receiver port"},
		{"Call unconnected", func() error { _, err := r.Call("S", "calc", "Add", nil); return err }(),
			"rte: S.calc is not connected to a server"},
		{"Call on sender-receiver", func() error { _, err := r.Call("S", "out", "Add", nil); return err }(),
			"rte: S.out is not a required client-server port"},
	} {
		if got := errText(c.err); got != c.want {
			t.Errorf("%s: error %q, want %q", c.what, got, c.want)
		}
	}
	for _, c := range [][2]string{{"X", "in"}, {"S", "nope"}} {
		if v, ok := r.Read(c[0], c[1]); ok || v != nil {
			t.Errorf("Read(%s, %s) = %v, %v", c[0], c[1], v, ok)
		}
	}
	in, err := r.Port("S", "in")
	if err != nil {
		t.Fatal(err)
	}
	if got := errText(in.Write(nil)); got != "rte: S.in is not a provided sender-receiver port" {
		t.Errorf("Port.Write on required: %q", got)
	}
}

func TestRejectedComponentDeclaresNothing(t *testing.T) {
	eng, r := newRTE()
	iface := vfb.Interface{Name: "Op", Kind: vfb.ClientServer, Operations: []string{"op"}}
	runs := 0
	serve := func(vfb.Runtime, string, []byte) ([]byte, error) { return nil, nil }
	bad := vfb.ComponentType{
		Name:  "Bad",
		Ports: []vfb.PortDef{{Name: "svc", Direction: core.Provided, Iface: iface}},
		Runnables: []vfb.RunnableSpec{
			{Name: "tick", Period: sim.Millisecond, Priority: 1, Entry: func(vfb.Runtime) { runs++ }},
			{Name: "serve1", OnInvoke: []string{"op"}, Handler: serve},
			{Name: "serve2", OnInvoke: []string{"op"}, Handler: serve},
		},
	}
	if err := r.AddComponent("Bad", bad); err == nil || !strings.Contains(err.Error(), "served twice") {
		t.Fatalf("AddComponent = %v, want operation served twice", err)
	}
	eng.RunUntil(sim.Time(10 * sim.Millisecond))
	if runs != 0 {
		t.Fatalf("rejected component's runnable ran %d times", runs)
	}
	if _, ok := r.Component("Bad"); ok {
		t.Fatal("rejected component hosted")
	}
}

// TestAllocFreeWriteFanOut pins the resolved write path, by name and by
// handle, at zero allocations with two local receivers, a data-triggered
// runnable and a COM transport behind the port.
func TestAllocFreeWriteFanOut(t *testing.T) {
	g := newFanOutRig(t)
	out, err := g.r1.Port("S", "out")
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte{1, 2}
	for what, write := range map[string]func() error{
		"RTE.Write":  func() error { return g.r1.Write("S", "out", payload) },
		"Port.Write": func() error { return out.Write(payload) },
	} {
		step := func() {
			if err := write(); err != nil {
				t.Fatal(err)
			}
			g.eng.Run()
			g.local, g.remote = g.local[:0], g.remote[:0]
		}
		for i := 0; i < 3; i++ {
			step() // warm engine, kernel and transport pools
		}
		if allocs := testing.AllocsPerRun(100, step); allocs != 0 {
			t.Errorf("%s: %v allocs per write, want 0", what, allocs)
		}
	}
}
