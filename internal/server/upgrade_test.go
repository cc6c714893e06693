package server

import (
	"context"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"dynautosar/internal/api"
	"dynautosar/internal/core"
	"dynautosar/internal/plugin"
	"dynautosar/internal/vehicle"
	"dynautosar/internal/vm"
)

// The live-upgrade pipeline's server-side edges: happy-path hot-swap,
// vehicle-side rollback with compensation, the stripe/reservation
// interaction with a concurrent batch deploy, disconnect mid-swap,
// double-upgrade idempotency, and the crash/recovery matrix of the
// upgrade journal records.

// counterApp builds a one-plug-in app ("Counter") deployed on SW-C2;
// versions differ in gain, and extraPort grows the port set so the
// upgraded PIC needs a fresh id next to the reused ones.
func counterApp(t *testing.T, name core.AppName, version string, gain int, extraPort bool) App {
	t.Helper()
	extra := ""
	if extraPort {
		extra = ".port Extra required\n"
	}
	src := fmt.Sprintf(`
.plugin Counter %s
.port Poke required
.port Report provided
%s.globals 1
on_message Poke:
	LDG 0
	PUSH 1
	ADD
	STG 0
	LDG 0
	PUSH %d
	MUL
	PWR Report
	RET
`, version, extra, gain)
	prog, err := vm.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	bin, err := plugin.FromProgram(prog, plugin.Manifest{Developer: "test"})
	if err != nil {
		t.Fatal(err)
	}
	return App{
		Name:     name,
		Binaries: []plugin.Binary{bin},
		Confs: []SWConf{{
			Model:       "modelcar-v1",
			Deployments: []Deployment{{Plugin: "Counter", ECU: vehicle.ECU2, SWC: vehicle.SWC2}},
		}},
	}
}

// paperAppNamed re-wraps the two-plug-in paper app under another name,
// the "new version" of a multi-plug-in upgrade.
func paperAppNamed(t *testing.T, name core.AppName) App {
	t.Helper()
	app := paperApp(t)
	app.Name = name
	return app
}

// upgradeVehicle is a scriptable fake vehicle: per-message behaviour is
// chosen by onUpgrade, and every received message is recorded.
type upgradeVehicle struct {
	mu       sync.Mutex
	received []core.Message
	conn     net.Conn
}

func (v *upgradeVehicle) messages() []core.Message {
	v.mu.Lock()
	defer v.mu.Unlock()
	return append([]core.Message(nil), v.received...)
}

// upgradesSeen counts received MsgUpgrade frames for a plug-in.
func (v *upgradeVehicle) upgradesSeen(name core.PluginName) int {
	n := 0
	for _, m := range v.messages() {
		if m.Type == core.MsgUpgrade && m.Plugin == name {
			n++
		}
	}
	return n
}

// connectScriptedVehicle attaches a fake vehicle whose reply to each
// message is computed by script (nil reply = stay silent).
func connectScriptedVehicle(t *testing.T, s *Server, id core.VehicleID, script func(n int, msg core.Message) *core.Message) *upgradeVehicle {
	t.Helper()
	vehicleSide, serverSide := net.Pipe()
	go s.Pusher().ServeConn(serverSide)
	if err := core.WriteMessage(vehicleSide, core.Message{Type: core.MsgHello, Payload: []byte(id)}); err != nil {
		t.Fatal(err)
	}
	v := &upgradeVehicle{conn: vehicleSide}
	go func() {
		n := 0
		for {
			msg, err := core.ReadMessage(vehicleSide)
			if err != nil {
				return
			}
			v.mu.Lock()
			v.received = append(v.received, msg)
			v.mu.Unlock()
			reply := script(n, msg)
			n++
			if reply != nil {
				if core.WriteMessage(vehicleSide, *reply) != nil {
					return
				}
			}
		}
	}()
	deadline := time.Now().Add(2 * time.Second)
	for !s.Pusher().Connected(id) {
		if time.Now().After(deadline) {
			t.Fatal("scripted vehicle never registered")
		}
		time.Sleep(time.Millisecond)
	}
	t.Cleanup(func() { vehicleSide.Close() })
	return v
}

// ackAll acknowledges every install/uninstall/upgrade.
func ackAll(_ int, msg core.Message) *core.Message {
	switch msg.Type {
	case core.MsgInstall, core.MsgUninstall, core.MsgUpgrade:
		r := msg.Ack()
		return &r
	}
	return nil
}

// deployCounterV1 uploads both versions and completes a v1 deploy.
func deployCounterV1(t *testing.T, s *Server, id core.VehicleID, c *api.Client) {
	t.Helper()
	ctx := context.Background()
	op, err := c.Deploy(ctx, api.DeployRequest{User: "alice", Vehicle: id, App: "Counter-v1"})
	if err != nil {
		t.Fatal(err)
	}
	if final, err := c.WaitOperation(ctx, op.ID, 0); err != nil || final.State != api.StateSucceeded {
		t.Fatalf("deploy = %+v, %v", final, err)
	}
}

// TestUpgradeLiveSwap is the happy path over the HTTP wire: the row is
// swapped atomically, same-named ports keep their recorded ids, and the
// new port of the grown version gets a fresh one.
func TestUpgradeLiveSwap(t *testing.T) {
	s := newServerWithVehicle(t, "VIN-U1")
	if err := s.Store().UploadApp(counterApp(t, "Counter-v1", "1.0", 1, false)); err != nil {
		t.Fatal(err)
	}
	if err := s.Store().UploadApp(counterApp(t, "Counter-v2", "2.0", 100, true)); err != nil {
		t.Fatal(err)
	}
	connectScriptedVehicle(t, s, "VIN-U1", ackAll)
	c := newV1Client(t, s)
	ctx := context.Background()
	deployCounterV1(t, s, "VIN-U1", c)
	oldRow, _ := s.Store().InstalledApp("VIN-U1", "Counter-v1")

	op, err := c.Upgrade(ctx, api.UpgradeRequest{User: "alice", Vehicle: "VIN-U1", From: "Counter-v1", To: "Counter-v2"})
	if err != nil {
		t.Fatal(err)
	}
	if op.Kind != api.OpUpgrade || op.App != "Counter-v1" || op.ToApp != "Counter-v2" {
		t.Fatalf("operation at launch = %+v", op)
	}
	final, err := c.WaitOperation(ctx, op.ID, 0)
	if err != nil || final.State != api.StateSucceeded || final.Total != 1 || final.Acked != 1 {
		t.Fatalf("upgrade = %+v, %v", final, err)
	}
	if _, stillThere := s.Store().InstalledApp("VIN-U1", "Counter-v1"); stillThere {
		t.Fatal("old row survived the committed upgrade")
	}
	newRow, ok := s.Store().InstalledApp("VIN-U1", "Counter-v2")
	if !ok || !newRow.Complete() {
		t.Fatalf("new row = %+v ok=%v", newRow, ok)
	}
	// Same-named ports keep their SW-C-scope ids across the swap; the
	// grown version's extra port gets a fresh, non-clashing id.
	oldPIC, newPIC := oldRow.Plugins[0].PIC, newRow.Plugins[0].PIC
	for _, e := range oldPIC {
		id, ok := newPIC.Lookup(e.Name)
		if !ok || id != e.ID {
			t.Fatalf("port %q moved: old %v, new %v (ok=%v)", e.Name, e.ID, id, ok)
		}
	}
	extraID, ok := newPIC.Lookup("Extra")
	if !ok {
		t.Fatal("grown port missing from the upgraded PIC")
	}
	for _, e := range oldPIC {
		if e.ID == extraID {
			t.Fatalf("fresh port id %v collides with old port %q", extraID, e.Name)
		}
	}
}

// TestUpgradeRollbackNack: the vehicle rolls the swap back; the
// operation fails with the stable "rollback" code and the old row
// stands untouched.
func TestUpgradeRollbackNack(t *testing.T) {
	s := newServerWithVehicle(t, "VIN-U2")
	if err := s.Store().UploadApp(counterApp(t, "Counter-v1", "1.0", 1, false)); err != nil {
		t.Fatal(err)
	}
	if err := s.Store().UploadApp(counterApp(t, "Counter-v2", "2.0", 100, false)); err != nil {
		t.Fatal(err)
	}
	connectScriptedVehicle(t, s, "VIN-U2", func(_ int, msg core.Message) *core.Message {
		switch msg.Type {
		case core.MsgInstall:
			r := msg.Ack()
			return &r
		case core.MsgUpgrade:
			r := msg.Nack("rollback: init: vm: division by zero")
			return &r
		}
		return nil
	})
	c := newV1Client(t, s)
	ctx := context.Background()
	deployCounterV1(t, s, "VIN-U2", c)

	op, err := c.Upgrade(ctx, api.UpgradeRequest{User: "alice", Vehicle: "VIN-U2", From: "Counter-v1", To: "Counter-v2"})
	if err != nil {
		t.Fatal(err)
	}
	final, err := c.WaitOperation(ctx, op.ID, 0)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != api.StateFailed || final.Error == nil || final.Error.Code != api.CodeRolledBack {
		t.Fatalf("upgrade final = %+v", final)
	}
	if len(final.Failures) != 1 || !strings.Contains(final.Failures[0], "rollback: ") {
		t.Fatalf("failures = %v", final.Failures)
	}
	if _, ok := s.Store().InstalledApp("VIN-U2", "Counter-v1"); !ok {
		t.Fatal("old row gone after rollback")
	}
	if _, ok := s.Store().InstalledApp("VIN-U2", "Counter-v2"); ok {
		t.Fatal("new row recorded despite rollback")
	}
}

// TestUpgradePartialRollbackCompensates: with two plug-ins, the vehicle
// acks the first swap and rolls back the second; the server pushes a
// compensating downgrade to the acked plug-in so the whole vehicle
// converges on the old version.
func TestUpgradePartialRollbackCompensates(t *testing.T) {
	restore := upgradeAckTimeout
	upgradeAckTimeout = 5 * time.Second
	defer func() { upgradeAckTimeout = restore }()

	s := newServerWithVehicle(t, "VIN-U3")
	if err := s.Store().UploadApp(paperApp(t)); err != nil {
		t.Fatal(err)
	}
	if err := s.Store().UploadApp(paperAppNamed(t, "RemoteControl-v2")); err != nil {
		t.Fatal(err)
	}
	var upgrades int
	var mu sync.Mutex
	v := connectScriptedVehicle(t, s, "VIN-U3", func(_ int, msg core.Message) *core.Message {
		switch msg.Type {
		case core.MsgInstall:
			r := msg.Ack()
			return &r
		case core.MsgUpgrade:
			mu.Lock()
			upgrades++
			nth := upgrades
			mu.Unlock()
			if nth == 1 {
				r := msg.Ack()
				return &r
			}
			if nth == 2 {
				r := msg.Nack("rollback: probe fault")
				return &r
			}
			// Compensation pushes (3rd onward) are acknowledged.
			r := msg.Ack()
			return &r
		}
		return nil
	})
	c := newV1Client(t, s)
	ctx := context.Background()
	op, err := c.Deploy(ctx, api.DeployRequest{User: "alice", Vehicle: "VIN-U3", App: "RemoteControl"})
	if err != nil {
		t.Fatal(err)
	}
	if final, err := c.WaitOperation(ctx, op.ID, 0); err != nil || final.State != api.StateSucceeded {
		t.Fatalf("deploy = %+v, %v", final, err)
	}

	uop, err := c.Upgrade(ctx, api.UpgradeRequest{User: "alice", Vehicle: "VIN-U3", From: "RemoteControl", To: "RemoteControl-v2"})
	if err != nil {
		t.Fatal(err)
	}
	final, err := c.WaitOperation(ctx, uop.ID, 0)
	if err != nil || final.State != api.StateFailed || final.Error == nil || final.Error.Code != api.CodeRolledBack {
		t.Fatalf("upgrade final = %+v, %v", final, err)
	}
	if _, ok := s.Store().InstalledApp("VIN-U3", "RemoteControl"); !ok {
		t.Fatal("old row gone after partial rollback")
	}
	// The plug-in that acked its swap received a third MsgUpgrade: the
	// compensating downgrade back to the old version.
	deadline := time.Now().Add(2 * time.Second)
	for {
		total := v.upgradesSeen("COM") + v.upgradesSeen("OP")
		if total >= 3 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no compensation push observed; upgrade frames = %d", total)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestUpgradeDisconnectMidSwap: the vehicle dies after receiving the
// swap but before acknowledging; the operation fails, the old row
// stands, and the claim is released for a retry.
func TestUpgradeDisconnectMidSwap(t *testing.T) {
	s := newServerWithVehicle(t, "VIN-U4")
	if err := s.Store().UploadApp(counterApp(t, "Counter-v1", "1.0", 1, false)); err != nil {
		t.Fatal(err)
	}
	if err := s.Store().UploadApp(counterApp(t, "Counter-v2", "2.0", 100, false)); err != nil {
		t.Fatal(err)
	}
	v := connectScriptedVehicle(t, s, "VIN-U4", func(_ int, msg core.Message) *core.Message {
		switch msg.Type {
		case core.MsgInstall:
			r := msg.Ack()
			return &r
		case core.MsgUpgrade:
			// Die mid-swap: close the link without acknowledging.
			go func() { time.Sleep(5 * time.Millisecond); _ = msgConnClose(msg) }()
			return nil
		}
		return nil
	})
	_ = v
	c := newV1Client(t, s)
	ctx := context.Background()
	deployCounterV1(t, s, "VIN-U4", c)

	op, err := c.Upgrade(ctx, api.UpgradeRequest{User: "alice", Vehicle: "VIN-U4", From: "Counter-v1", To: "Counter-v2"})
	if err != nil {
		t.Fatal(err)
	}
	// Kill the link once the swap frame is on the wire.
	deadline := time.Now().Add(2 * time.Second)
	for v.upgradesSeen("Counter") == 0 {
		if time.Now().After(deadline) {
			t.Fatal("swap frame never arrived")
		}
		time.Sleep(time.Millisecond)
	}
	v.conn.Close()

	final, err := c.WaitOperation(ctx, op.ID, 0)
	if err != nil || final.State != api.StateFailed {
		t.Fatalf("upgrade final = %+v, %v", final, err)
	}
	if final.Error != nil && final.Error.Code == api.CodeRolledBack {
		t.Fatalf("disconnect misreported as vehicle rollback: %+v", final.Error)
	}
	if _, ok := s.Store().InstalledApp("VIN-U4", "Counter-v1"); !ok {
		t.Fatal("old row gone after disconnect")
	}
	if _, ok := s.Store().InstalledApp("VIN-U4", "Counter-v2"); ok {
		t.Fatal("new row recorded despite disconnect")
	}
	// The claim and the port reservation are released: a retry against
	// the reconnected vehicle succeeds.
	connectScriptedVehicle(t, s, "VIN-U4", ackAll)
	rop, err := c.Upgrade(ctx, api.UpgradeRequest{User: "alice", Vehicle: "VIN-U4", From: "Counter-v1", To: "Counter-v2"})
	if err != nil {
		t.Fatal(err)
	}
	if final, err := c.WaitOperation(ctx, rop.ID, 0); err != nil || final.State != api.StateSucceeded {
		t.Fatalf("retry after disconnect = %+v, %v", final, err)
	}
}

// msgConnClose exists to keep the scripted closure tidy; the real close
// happens through the test body.
func msgConnClose(core.Message) error { return nil }

// TestUpgradeDoubleIdempotency: a second identical upgrade while one is
// in flight is refused by the claim; re-issuing after commit reports
// the stable codes (from-app gone, to-app installed) without touching
// state.
func TestUpgradeDoubleIdempotency(t *testing.T) {
	s := newServerWithVehicle(t, "VIN-U5")
	if err := s.Store().UploadApp(counterApp(t, "Counter-v1", "1.0", 1, false)); err != nil {
		t.Fatal(err)
	}
	if err := s.Store().UploadApp(counterApp(t, "Counter-v2", "2.0", 100, false)); err != nil {
		t.Fatal(err)
	}
	release := make(chan struct{})
	var once sync.Once
	connectScriptedVehicle(t, s, "VIN-U5", func(_ int, msg core.Message) *core.Message {
		switch msg.Type {
		case core.MsgInstall:
			r := msg.Ack()
			return &r
		case core.MsgUpgrade:
			// Hold the first swap open until the test releases it.
			once.Do(func() { <-release })
			r := msg.Ack()
			return &r
		}
		return nil
	})
	c := newV1Client(t, s)
	ctx := context.Background()
	deployCounterV1(t, s, "VIN-U5", c)

	op, err := c.Upgrade(ctx, api.UpgradeRequest{User: "alice", Vehicle: "VIN-U5", From: "Counter-v1", To: "Counter-v2"})
	if err != nil {
		t.Fatal(err)
	}
	// While the first upgrade is mid-swap, the duplicate is refused.
	// Probed in-process: the poll must not trip the HTTP rate limiter.
	// Wait for the first upgrade's claim before probing: a duplicate
	// accepted ahead of it is a real operation whose launch can take the
	// claim and fail the first one.
	waitFor(t, func() bool { return s.claimedByOther("", "VIN-U5", "Counter-v1") != nil })
	lc := api.NewLocalClient(NewService(s))
	deadline := time.Now().Add(2 * time.Second)
	for {
		_, err := lc.Upgrade(ctx, api.UpgradeRequest{User: "alice", Vehicle: "VIN-U5", From: "Counter-v1", To: "Counter-v2"})
		if err != nil {
			wantCode(t, err, api.CodeAlreadyExists)
			break
		}
		// The first upgrade may not have claimed yet (async launch).
		if time.Now().After(deadline) {
			t.Fatal("duplicate upgrade was never refused")
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	if final, err := c.WaitOperation(ctx, op.ID, 0); err != nil || final.State != api.StateSucceeded {
		t.Fatalf("first upgrade = %+v, %v", final, err)
	}
	// Re-issuing the same transition after commit: the from-app is gone.
	_, err = c.Upgrade(ctx, api.UpgradeRequest{User: "alice", Vehicle: "VIN-U5", From: "Counter-v1", To: "Counter-v2"})
	wantCode(t, err, api.CodeNotFound)
	// Upgrading v2 onto itself is invalid, and v2 is already installed.
	_, err = c.Upgrade(ctx, api.UpgradeRequest{User: "alice", Vehicle: "VIN-U5", From: "Counter-v2", To: "Counter-v2"})
	wantCode(t, err, api.CodeInvalidArgument)
	if row, ok := s.Store().InstalledApp("VIN-U5", "Counter-v2"); !ok || !row.Complete() {
		t.Fatalf("v2 row = %+v ok=%v", row, ok)
	}
}

// TestUpgradeDuringBatchDeployStripe races a live upgrade (whose grown
// version needs a fresh port id on SW-C2) against a batch deploy of
// another app onto the same vehicle: the reservation keeps the port-id
// spaces disjoint regardless of interleaving.
func TestUpgradeDuringBatchDeployStripe(t *testing.T) {
	s := newServerWithVehicle(t, "VIN-U6")
	if err := s.Store().UploadApp(counterApp(t, "Counter-v1", "1.0", 1, false)); err != nil {
		t.Fatal(err)
	}
	if err := s.Store().UploadApp(counterApp(t, "Counter-v2", "2.0", 100, true)); err != nil {
		t.Fatal(err)
	}
	if err := s.Store().UploadApp(paperApp(t)); err != nil {
		t.Fatal(err)
	}
	// The vehicle delays upgrade acks a little, widening the window in
	// which the deploy must respect the reservation.
	connectScriptedVehicle(t, s, "VIN-U6", func(_ int, msg core.Message) *core.Message {
		switch msg.Type {
		case core.MsgInstall:
			r := msg.Ack()
			return &r
		case core.MsgUpgrade:
			time.Sleep(20 * time.Millisecond)
			r := msg.Ack()
			return &r
		}
		return nil
	})
	c := newV1Client(t, s)
	ctx := context.Background()
	deployCounterV1(t, s, "VIN-U6", c)

	uop, err := c.Upgrade(ctx, api.UpgradeRequest{User: "alice", Vehicle: "VIN-U6", From: "Counter-v1", To: "Counter-v2"})
	if err != nil {
		t.Fatal(err)
	}
	dop, err := c.BatchDeploy(ctx, api.BatchDeployRequest{User: "alice", Vehicles: []core.VehicleID{"VIN-U6"}, App: "RemoteControl"})
	if err != nil {
		t.Fatal(err)
	}
	if final, err := c.WaitOperation(ctx, uop.ID, 0); err != nil || final.State != api.StateSucceeded {
		t.Fatalf("upgrade = %+v, %v", final, err)
	}
	if final, err := c.WaitOperation(ctx, dop.ID, 0); err != nil || final.State != api.StateSucceeded {
		t.Fatalf("batch deploy = %+v, %v", final, err)
	}
	// Port-id uniqueness on the shared SW-C across both rows.
	seen := make(map[core.PluginPortID]string)
	for _, row := range s.Store().InstalledApps("VIN-U6") {
		for _, p := range row.Plugins {
			if p.ECU != vehicle.ECU2 || p.SWC != vehicle.SWC2 {
				continue
			}
			for _, e := range p.PIC {
				if prev, clash := seen[e.ID]; clash {
					t.Fatalf("port id %v assigned to both %s and %s/%s", e.ID, prev, row.App, e.Name)
				}
				seen[e.ID] = string(row.App) + "/" + e.Name
			}
		}
	}
}

// TestBatchUpgradeFleet: the fleet-scale form — one parent, a child per
// vehicle, plan reuse across equal confs and rows.
func TestBatchUpgradeFleet(t *testing.T) {
	s, ids := newBatchFleet(t, 8, true)
	if err := s.Store().UploadApp(paperAppNamed(t, "RemoteControl-v2")); err != nil {
		t.Fatal(err)
	}
	c := newV1Client(t, s)
	ctx := context.Background()
	dop, err := c.BatchDeploy(ctx, api.BatchDeployRequest{User: "alice", Vehicles: ids, App: "RemoteControl"})
	if err != nil {
		t.Fatal(err)
	}
	if final, err := c.WaitOperation(ctx, dop.ID, 0); err != nil || final.State != api.StateSucceeded {
		t.Fatalf("batch deploy = %+v, %v", final, err)
	}

	op, err := c.BatchUpgrade(ctx, api.BatchUpgradeRequest{
		User: "alice", Vehicles: ids, From: "RemoteControl", To: "RemoteControl-v2",
	})
	if err != nil {
		t.Fatal(err)
	}
	if op.Kind != api.OpBatchUpgrade || len(op.Children) != 8 {
		t.Fatalf("parent at launch = %+v", op)
	}
	final, err := c.WaitOperation(ctx, op.ID, 0)
	if err != nil || final.State != api.StateSucceeded || final.VehiclesSucceeded != 8 {
		t.Fatalf("batch upgrade final = %+v, %v", final, err)
	}
	for _, id := range ids {
		if _, ok := s.Store().InstalledApp(id, "RemoteControl"); ok {
			t.Fatalf("vehicle %s: old row survived", id)
		}
		if row, ok := s.Store().InstalledApp(id, "RemoteControl-v2"); !ok || !row.Complete() {
			t.Fatalf("vehicle %s: new row = %+v ok=%v", id, row, ok)
		}
	}
}

// TestRecoveryUpgradeMatrix locks the crash/recovery matrix of the
// upgrade journal records: a crash between upgrade_started and a settle
// record recovers to exactly the old version; a crash after
// upgrade_committed recovers to exactly the new one.
func TestRecoveryUpgradeMatrix(t *testing.T) {
	t.Run("crash-before-commit-recovers-old", func(t *testing.T) {
		dir := t.TempDir()
		a := openRecovered(t, dir)
		if err := a.Store().AddUser("alice"); err != nil {
			t.Fatal(err)
		}
		if err := a.Store().BindVehicle("alice", modelCarConf("VIN-CR1")); err != nil {
			t.Fatal(err)
		}
		if err := a.Store().UploadApp(counterApp(t, "Counter-v1", "1.0", 1, false)); err != nil {
			t.Fatal(err)
		}
		if err := a.Store().UploadApp(counterApp(t, "Counter-v2", "2.0", 100, false)); err != nil {
			t.Fatal(err)
		}
		// The vehicle receives the swap but never answers: the upgrade
		// hangs between its started record and any settle record.
		v := connectScriptedVehicle(t, a, "VIN-CR1", func(_ int, msg core.Message) *core.Message {
			if msg.Type == core.MsgInstall {
				r := msg.Ack()
				return &r
			}
			return nil
		})
		c := api.NewLocalClient(NewService(a))
		ctx := context.Background()
		deployCounterV1(t, a, "VIN-CR1", c)
		op, err := c.Upgrade(ctx, api.UpgradeRequest{User: "alice", Vehicle: "VIN-CR1", From: "Counter-v1", To: "Counter-v2"})
		if err != nil {
			t.Fatal(err)
		}
		deadline := time.Now().Add(2 * time.Second)
		for v.upgradesSeen("Counter") == 0 {
			if time.Now().After(deadline) {
				t.Fatal("swap frame never arrived")
			}
			time.Sleep(time.Millisecond)
		}
		barrier(t, a, "sentinel")
		a.Journal().Crash()

		b := openRecovered(t, dir)
		if _, ok := b.Store().InstalledApp("VIN-CR1", "Counter-v1"); !ok {
			t.Fatal("old row missing after crash before commit")
		}
		if _, ok := b.Store().InstalledApp("VIN-CR1", "Counter-v2"); ok {
			t.Fatal("new row present despite crash before commit")
		}
		rop, ok := b.Operation(op.ID)
		if !ok || rop.State != api.StateFailed || rop.Error == nil || rop.Error.Code != api.CodeInterrupted {
			t.Fatalf("recovered upgrade op = %+v ok=%v", rop, ok)
		}
		// The recovered server accepts a fresh upgrade attempt: no
		// claim or reservation survived the crash.
		connectScriptedVehicle(t, b, "VIN-CR1", ackAll)
		bc := api.NewLocalClient(NewService(b))
		nop, err := bc.Upgrade(ctx, api.UpgradeRequest{User: "alice", Vehicle: "VIN-CR1", From: "Counter-v1", To: "Counter-v2"})
		if err != nil {
			t.Fatal(err)
		}
		if final, err := bc.WaitOperation(ctx, nop.ID, 0); err != nil || final.State != api.StateSucceeded {
			t.Fatalf("post-recovery upgrade = %+v, %v", final, err)
		}
	})

	t.Run("crash-after-commit-recovers-new", func(t *testing.T) {
		dir := t.TempDir()
		a := openRecovered(t, dir)
		if err := a.Store().AddUser("alice"); err != nil {
			t.Fatal(err)
		}
		if err := a.Store().BindVehicle("alice", modelCarConf("VIN-CR2")); err != nil {
			t.Fatal(err)
		}
		if err := a.Store().UploadApp(counterApp(t, "Counter-v1", "1.0", 1, false)); err != nil {
			t.Fatal(err)
		}
		if err := a.Store().UploadApp(counterApp(t, "Counter-v2", "2.0", 100, false)); err != nil {
			t.Fatal(err)
		}
		connectScriptedVehicle(t, a, "VIN-CR2", ackAll)
		c := api.NewLocalClient(NewService(a))
		ctx := context.Background()
		deployCounterV1(t, a, "VIN-CR2", c)
		op, err := c.Upgrade(ctx, api.UpgradeRequest{User: "alice", Vehicle: "VIN-CR2", From: "Counter-v1", To: "Counter-v2"})
		if err != nil {
			t.Fatal(err)
		}
		if final, err := c.WaitOperation(ctx, op.ID, 0); err != nil || final.State != api.StateSucceeded {
			t.Fatalf("upgrade = %+v, %v", final, err)
		}
		// The commit record is fire-and-forget; the barrier's group
		// commit flushes it before the kill.
		barrier(t, a, "sentinel")
		a.Journal().Crash()

		b := openRecovered(t, dir)
		if _, ok := b.Store().InstalledApp("VIN-CR2", "Counter-v1"); ok {
			t.Fatal("old row present after crash past commit")
		}
		row, ok := b.Store().InstalledApp("VIN-CR2", "Counter-v2")
		if !ok || !row.Complete() {
			t.Fatalf("new row = %+v ok=%v", row, ok)
		}
	})
}
