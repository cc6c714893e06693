package bsw

import (
	"errors"
	"reflect"
	"testing"

	"dynautosar/internal/sim"
)

func TestIoHwAbWriteReadClamp(t *testing.T) {
	eng := sim.NewEngine()
	io := NewIoHwAb(eng)
	if err := io.AddChannel("Wheels", PWM, -100, 100); err != nil {
		t.Fatal(err)
	}
	applied, err := io.Write("Wheels", 250)
	if err != nil {
		t.Fatal(err)
	}
	if applied != 100 {
		t.Fatalf("applied = %d, want clamp to 100", applied)
	}
	if v, _ := io.Read("Wheels"); v != 100 {
		t.Fatalf("Read = %d", v)
	}
	applied, _ = io.Write("Wheels", -250)
	if applied != -100 {
		t.Fatalf("applied = %d, want clamp to -100", applied)
	}
}

func TestIoHwAbDigitalNormalisation(t *testing.T) {
	io := NewIoHwAb(sim.NewEngine())
	_ = io.AddChannel("Led", Digital, 0, 1)
	if v, _ := io.Write("Led", 7); v != 1 {
		t.Fatalf("digital write normalised to %d", v)
	}
}

func TestIoHwAbObserversAndSensorSet(t *testing.T) {
	eng := sim.NewEngine()
	io := NewIoHwAb(eng)
	_ = io.AddChannel("Speed", Analog, 0, 1000)
	var seen []int64
	if err := io.OnWrite("Speed", func(v int64, _ sim.Time) { seen = append(seen, v) }); err != nil {
		t.Fatal(err)
	}
	_, _ = io.Write("Speed", 42)
	// Sensor update must not trigger actuator observers.
	_ = io.Set("Speed", 77)
	if len(seen) != 1 || seen[0] != 42 {
		t.Fatalf("seen = %v", seen)
	}
	if v, _ := io.Read("Speed"); v != 77 {
		t.Fatalf("Read after Set = %d", v)
	}
}

func TestIoHwAbErrors(t *testing.T) {
	io := NewIoHwAb(sim.NewEngine())
	if _, err := io.Read("nope"); !errors.Is(err, ErrUnknownChannel) {
		t.Fatalf("Read unknown = %v", err)
	}
	if _, err := io.Write("nope", 1); !errors.Is(err, ErrUnknownChannel) {
		t.Fatalf("Write unknown = %v", err)
	}
	if err := io.Set("nope", 1); !errors.Is(err, ErrUnknownChannel) {
		t.Fatalf("Set unknown = %v", err)
	}
	if err := io.OnWrite("nope", nil); !errors.Is(err, ErrUnknownChannel) {
		t.Fatalf("OnWrite unknown = %v", err)
	}
	if err := io.AddChannel("", Analog, 0, 1); err == nil {
		t.Fatal("empty name accepted")
	}
	_ = io.AddChannel("A", Analog, 0, 1)
	if err := io.AddChannel("A", Analog, 0, 1); err == nil {
		t.Fatal("duplicate accepted")
	}
	if err := io.AddChannel("B", Analog, 5, 1); err == nil {
		t.Fatal("inverted range accepted")
	}
	if got := io.Channels(); len(got) != 1 || got[0] != "A" {
		t.Fatalf("Channels = %v", got)
	}
}

// TestChannelHandleMatchesNamePath drives two identical IoHwAbs, one
// through Channel handles and one by name, and requires the same applied
// values, observer calls, sensor reads and Writes counts.
func TestChannelHandleMatchesNamePath(t *testing.T) {
	type trace struct {
		applied, read []int64
		seen          []int64
		writes        uint64
	}
	setup := func() *IoHwAb {
		io := NewIoHwAb(sim.NewEngine())
		_ = io.AddChannel("Wheels", PWM, -100, 100)
		_ = io.AddChannel("Led", Digital, 0, 1)
		_ = io.AddChannel("Speed", Analog, 0, 1000)
		return io
	}
	writes := []struct {
		ch string
		v  int64
	}{{"Wheels", 250}, {"Wheels", -250}, {"Wheels", 42}, {"Led", 7}, {"Led", 0}, {"Led", -3}, {"Speed", 500}}

	byName, viaHandle := &trace{}, &trace{}
	io := setup()
	for _, ch := range []string{"Wheels", "Led", "Speed"} {
		_ = io.OnWrite(ch, func(v int64, _ sim.Time) { byName.seen = append(byName.seen, v) })
	}
	for _, w := range writes {
		v, _ := io.Write(w.ch, w.v)
		r, _ := io.Read(w.ch)
		byName.applied, byName.read = append(byName.applied, v), append(byName.read, r)
	}
	_ = io.Set("Speed", 77)
	r, _ := io.Read("Speed")
	byName.read, byName.writes = append(byName.read, r), io.Writes

	io = setup()
	handles := map[string]*Channel{}
	for _, name := range []string{"Wheels", "Led", "Speed"} {
		ch, err := io.Channel(name)
		if err != nil {
			t.Fatal(err)
		}
		ch.OnWrite(func(v int64, _ sim.Time) { viaHandle.seen = append(viaHandle.seen, v) })
		handles[name] = ch
	}
	for _, w := range writes {
		v := handles[w.ch].Write(w.v)
		viaHandle.applied, viaHandle.read = append(viaHandle.applied, v), append(viaHandle.read, handles[w.ch].Read())
	}
	handles["Speed"].Set(77)
	viaHandle.read, viaHandle.writes = append(viaHandle.read, handles["Speed"].Read()), io.Writes

	if !reflect.DeepEqual(byName, viaHandle) {
		t.Fatalf("name path %+v, handle path %+v", *byName, *viaHandle)
	}
	if want := []int64{100, -100, 42, 1, 0, 0, 500}; !reflect.DeepEqual(byName.applied, want) {
		t.Fatalf("applied %v, want %v", byName.applied, want)
	}
	if byName.writes != uint64(len(writes)) || len(byName.seen) != len(writes) || byName.read[len(writes)] != 77 {
		t.Fatalf("writes %d, observers saw %v, sensor read %d", byName.writes, byName.seen, byName.read[len(writes)])
	}
	if _, err := io.Channel("nope"); !errors.Is(err, ErrUnknownChannel) {
		t.Fatalf("Channel unknown = %v", err)
	}
}

func TestNvMRoundTrip(t *testing.T) {
	n := NewNvM()
	n.WriteBlock("pirte/installed", []byte("OP,COM"))
	got, ok := n.ReadBlock("pirte/installed")
	if !ok || string(got) != "OP,COM" {
		t.Fatalf("ReadBlock = %q, %v", got, ok)
	}
	// Stored data is isolated from caller mutation.
	got[0] = 'X'
	again, _ := n.ReadBlock("pirte/installed")
	if string(again) != "OP,COM" {
		t.Fatal("NvM aliased caller buffer")
	}
	if _, ok := n.ReadBlock("missing"); ok {
		t.Fatal("missing block resolved")
	}
	n.DeleteBlock("pirte/installed")
	if _, ok := n.ReadBlock("pirte/installed"); ok {
		t.Fatal("deleted block resolved")
	}
	if n.CommitCount != 1 {
		t.Fatalf("CommitCount = %d", n.CommitCount)
	}
	n.WriteBlock("a", nil)
	n.WriteBlock("b", nil)
	if got := n.Blocks(); len(got) != 2 || got[0] != "a" {
		t.Fatalf("Blocks = %v", got)
	}
}

func TestWdgMSupervision(t *testing.T) {
	eng := sim.NewEngine()
	w := NewWdgM(eng)
	var expired []string
	if err := w.Supervise("SW-C2", 100, func(name string) { expired = append(expired, name) }); err != nil {
		t.Fatal(err)
	}
	if w.Alive("SW-C2") {
		t.Fatal("alive before first checkpoint")
	}
	if err := w.Checkpoint("SW-C2"); err != nil {
		t.Fatal(err)
	}
	// Checkpoint again before the deadline: no expiry.
	eng.RunUntil(50)
	_ = w.Checkpoint("SW-C2")
	eng.RunUntil(120)
	if len(expired) != 0 {
		t.Fatalf("expired early: %v", expired)
	}
	if !w.Alive("SW-C2") {
		t.Fatal("not alive within deadline")
	}
	// Now let it lapse.
	eng.RunUntil(300)
	if len(expired) != 1 || expired[0] != "SW-C2" {
		t.Fatalf("expired = %v", expired)
	}
	if w.Alive("SW-C2") {
		t.Fatal("alive after expiry")
	}
	if w.Expirations("SW-C2") != 1 {
		t.Fatalf("Expirations = %d", w.Expirations("SW-C2"))
	}
}

func TestWdgMErrors(t *testing.T) {
	w := NewWdgM(sim.NewEngine())
	if err := w.Supervise("", 100, nil); err == nil {
		t.Fatal("empty name accepted")
	}
	if err := w.Supervise("x", 0, nil); err == nil {
		t.Fatal("zero deadline accepted")
	}
	_ = w.Supervise("x", 10, nil)
	if err := w.Supervise("x", 10, nil); err == nil {
		t.Fatal("duplicate accepted")
	}
	if err := w.Checkpoint("unknown"); err == nil {
		t.Fatal("unknown checkpoint accepted")
	}
	if w.Expirations("unknown") != 0 {
		t.Fatal("unknown expirations nonzero")
	}
}

func TestEcuMTransitions(t *testing.T) {
	m := NewEcuM()
	var seen []EcuState
	m.OnTransition(func(s EcuState) { seen = append(seen, s) })
	if m.State() != StateOff {
		t.Fatalf("initial state = %v", m.State())
	}
	for _, s := range []EcuState{StateStartup, StateRun, StateShutdown, StateOff} {
		if err := m.Transition(s); err != nil {
			t.Fatal(err)
		}
	}
	if len(seen) != 4 {
		t.Fatalf("seen = %v", seen)
	}
	if err := m.Transition(StateRun); err == nil {
		t.Fatal("Off -> Run accepted")
	}
	if StateRun.String() != "run" || StateOff.String() != "off" {
		t.Fatal("state strings")
	}
}

func TestChannelKindString(t *testing.T) {
	if Digital.String() != "digital" || Analog.String() != "analog" || PWM.String() != "pwm" {
		t.Fatal("kind strings")
	}
}
