package vfb

import (
	"strings"
	"testing"

	"dynautosar/internal/core"
)

func srIface(maxLen int) Interface {
	return Interface{Name: "SR", Kind: SenderReceiver, MaxLen: maxLen}
}

func csIface(ops ...string) Interface {
	return Interface{Name: "CS", Kind: ClientServer, Operations: ops}
}

func TestInterfaceValidate(t *testing.T) {
	if err := srIface(8).Validate(); err != nil {
		t.Fatal(err)
	}
	if err := csIface("Get").Validate(); err != nil {
		t.Fatal(err)
	}
	bad := Interface{Name: "x", Kind: SenderReceiver, Operations: []string{"Op"}}
	if err := bad.Validate(); err == nil {
		t.Fatal("SR with operations accepted")
	}
	bad = Interface{Name: "x", Kind: ClientServer}
	if err := bad.Validate(); err == nil {
		t.Fatal("CS without operations accepted")
	}
	bad = Interface{Name: "x"}
	if err := bad.Validate(); err == nil {
		t.Fatal("invalid kind accepted")
	}
	if !csIface("Get", "Set").HasOperation("Set") || csIface("Get").HasOperation("Set") {
		t.Fatal("HasOperation mismatch")
	}
}

func TestPortDefValidate(t *testing.T) {
	good := PortDef{Name: "out", Direction: core.Provided, Iface: srIface(4)}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []PortDef{
		{Name: "", Direction: core.Provided, Iface: srIface(4)},
		{Name: "x", Iface: srIface(4)},
		{Name: "x", Direction: core.Required, Iface: srIface(4), QueueLen: -1},
		{Name: "x", Direction: core.Required, Iface: csIface("Op"), QueueLen: 2},
	} {
		if err := bad.Validate(); err == nil {
			t.Errorf("accepted %+v", bad)
		}
	}
}

func validComponent() ComponentType {
	return ComponentType{
		Name: "Ctrl",
		Ports: []PortDef{
			{Name: "in", Direction: core.Required, Iface: srIface(8)},
			{Name: "out", Direction: core.Provided, Iface: srIface(8)},
			{Name: "svc", Direction: core.Provided, Iface: csIface("Get")},
		},
		Runnables: []RunnableSpec{
			{Name: "step", Period: 1000, Entry: func(Runtime) {}},
			{Name: "onIn", OnData: []string{"in"}, Entry: func(Runtime) {}},
			{Name: "serve", OnInvoke: []string{"Get"},
				Handler: func(Runtime, string, []byte) ([]byte, error) { return nil, nil }},
		},
	}
}

func TestComponentValidate(t *testing.T) {
	if err := validComponent().Validate(); err != nil {
		t.Fatal(err)
	}

	c := validComponent()
	c.Ports = append(c.Ports, c.Ports[0])
	if err := c.Validate(); err == nil || !strings.Contains(err.Error(), "duplicate port") {
		t.Fatalf("duplicate port: %v", err)
	}

	c = validComponent()
	c.Runnables[0].Period = 0
	c.Runnables[0].OnData = nil
	if err := c.Validate(); err == nil || !strings.Contains(err.Error(), "no trigger") {
		t.Fatalf("no trigger: %v", err)
	}

	c = validComponent()
	c.Runnables[1].OnData = []string{"nope"}
	if err := c.Validate(); err == nil || !strings.Contains(err.Error(), "unknown port") {
		t.Fatalf("unknown trigger port: %v", err)
	}

	c = validComponent()
	c.Runnables[1].OnData = []string{"out"} // provided, not required
	if err := c.Validate(); err == nil {
		t.Fatal("data trigger on provided port accepted")
	}

	c = validComponent()
	c.Runnables[2].Handler = nil
	if err := c.Validate(); err == nil || !strings.Contains(err.Error(), "no handler") {
		t.Fatalf("missing handler: %v", err)
	}

	c = validComponent()
	c.Runnables[0].Entry = nil
	if err := c.Validate(); err == nil || !strings.Contains(err.Error(), "no entry") {
		t.Fatalf("missing entry: %v", err)
	}

	c = validComponent()
	c.Runnables = append(c.Runnables, c.Runnables[0])
	if err := c.Validate(); err == nil || !strings.Contains(err.Error(), "duplicate runnable") {
		t.Fatalf("duplicate runnable: %v", err)
	}

	c = validComponent()
	serve2 := c.Runnables[2]
	serve2.Name = "serve2"
	c.Runnables = append(c.Runnables, serve2)
	if err := c.Validate(); err == nil || !strings.Contains(err.Error(), "served twice") {
		t.Fatalf("operation served by two runnables: %v", err)
	}

	for _, mix := range []func(*RunnableSpec){
		func(r *RunnableSpec) { r.Period = 1000 },
		func(r *RunnableSpec) { r.OnData = []string{"in"} },
	} {
		c = validComponent()
		mix(&c.Runnables[2])
		c.Runnables[2].Entry = func(Runtime) {}
		if err := c.Validate(); err == nil || !strings.Contains(err.Error(), "serves operations and has") {
			t.Fatalf("operation runnable with another trigger: %v", err)
		}
	}
}

func TestPortLookup(t *testing.T) {
	c := validComponent()
	if p, ok := c.Port("in"); !ok || p.Direction != core.Required {
		t.Fatalf("Port(in) = %+v, %v", p, ok)
	}
	if _, ok := c.Port("missing"); ok {
		t.Fatal("Port(missing) resolved")
	}
}

func leaf(name string) ComponentType {
	return ComponentType{
		Name: name,
		Ports: []PortDef{
			{Name: "in", Direction: core.Required, Iface: srIface(8)},
			{Name: "out", Direction: core.Provided, Iface: srIface(8)},
		},
	}
}

func TestCompositeFlatten(t *testing.T) {
	comp := Composite{
		Name: "Pair",
		Children: map[string]ComponentType{
			"a": leaf("A"),
			"b": leaf("B"),
		},
		Connections: []CompositeConnection{{From: "a.out", To: "b.in"}},
		Delegations: map[string]string{"extIn": "a.in"},
	}
	instances, conns, err := comp.Flatten()
	if err != nil {
		t.Fatal(err)
	}
	if len(instances) != 2 || instances[0].Instance != "Pair/a" || instances[1].Instance != "Pair/b" {
		t.Fatalf("instances = %+v", instances)
	}
	if len(conns) != 1 || conns[0].FromInstance != "Pair/a" || conns[0].ToPort != "in" {
		t.Fatalf("conns = %+v", conns)
	}
}

func TestCompositeFlattenErrors(t *testing.T) {
	base := func() Composite {
		return Composite{
			Name:     "C",
			Children: map[string]ComponentType{"a": leaf("A"), "b": leaf("B")},
		}
	}
	c := base()
	c.Connections = []CompositeConnection{{From: "a.out", To: "x.in"}}
	if _, _, err := c.Flatten(); err == nil {
		t.Fatal("unknown child accepted")
	}
	c = base()
	c.Connections = []CompositeConnection{{From: "a.in", To: "b.in"}}
	if _, _, err := c.Flatten(); err == nil {
		t.Fatal("required-to-required accepted")
	}
	c = base()
	c.Connections = []CompositeConnection{{From: "a.out", To: "b.out"}}
	if _, _, err := c.Flatten(); err == nil {
		t.Fatal("provided target accepted")
	}
	c = base()
	c.Connections = []CompositeConnection{{From: "malformed", To: "b.in"}}
	if _, _, err := c.Flatten(); err == nil {
		t.Fatal("malformed ref accepted")
	}
	c = base()
	c.Delegations = map[string]string{"p": "nope.in"}
	if _, _, err := c.Flatten(); err == nil {
		t.Fatal("bad delegation accepted")
	}
	empty := Composite{Name: "E"}
	if _, _, err := empty.Flatten(); err == nil {
		t.Fatal("empty composite accepted")
	}
}

func TestInterfaceKindString(t *testing.T) {
	if SenderReceiver.String() != "sender-receiver" || ClientServer.String() != "client-server" {
		t.Fatal("kind strings")
	}
}
