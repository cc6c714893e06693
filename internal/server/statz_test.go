package server

import (
	"context"
	"testing"

	"dynautosar/internal/api"
	"dynautosar/internal/core"
)

// checkOpsOpen compares the open-operation count statz reports with a
// walk of the registry, both read under one hold of Server.mu.
func checkOpsOpen(t *testing.T, s *Server, label string) int {
	t.Helper()
	s.mu.Lock()
	walked := 0
	for _, rec := range s.ops {
		if !rec.op.Done {
			walked++
		}
	}
	counted := s.opsOpenLocked()
	s.mu.Unlock()
	if counted != walked {
		t.Fatalf("%s: statz counts %d open operations, the registry holds %d", label, counted, walked)
	}
	return counted
}

// TestStatzOpsOpenMatchesRegistry: the open-operation count statz
// reports equals a registry walk after creates, settles, evictions and
// a crash and recovery.
func TestStatzOpsOpenMatchesRegistry(t *testing.T) {
	old := opRetention
	opRetention = 4
	t.Cleanup(func() { opRetention = old })

	dir := t.TempDir()
	s := openRecovered(t, dir)
	for _, step := range []func() error{
		func() error { return s.Store().AddUser("alice") },
		func() error { return s.Store().UploadApp(paperApp(t)) },
		func() error { return s.Store().BindVehicle("alice", modelCarConf("VIN-OO-HELD")) },
		func() error { return s.Store().BindVehicle("alice", modelCarConf("VIN-OO-OFF")) },
	} {
		if err := step(); err != nil {
			t.Fatal(err)
		}
	}
	ack, pushed := connectHeldVehicle(t, s, "VIN-OO-HELD")
	c := api.NewLocalClient(NewService(s))
	ctx := context.Background()

	held, err := c.Deploy(ctx, api.DeployRequest{User: "alice", Vehicle: "VIN-OO-HELD", App: "RemoteControl"})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return pushed() == 2 })
	checkOpsOpen(t, s, "created")
	// Offline deploys settle at launch; past the retention they evict
	// one another, never the open deploy.
	for i := 0; i < 6; i++ {
		op, err := c.Deploy(ctx, api.DeployRequest{User: "alice", Vehicle: "VIN-OO-OFF", App: "RemoteControl"})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.WaitOperation(ctx, op.ID, 0); err != nil {
			t.Fatal(err)
		}
		checkOpsOpen(t, s, "settled and evicted")
	}
	if _, ok := s.Operation("op-00000002"); ok {
		t.Fatal("retention evicted nothing")
	}
	if n := checkOpsOpen(t, s, "before the ack"); n != 1 {
		t.Fatalf("%d open operations, want the held deploy", n)
	}
	ack()
	if final, err := c.WaitOperation(ctx, held.ID, 0); err != nil || final.State != api.StateSucceeded {
		t.Fatalf("held deploy = %+v, %v", final, err)
	}
	if n := s.Statz().OpsOpen; n != 0 {
		t.Fatalf("statz OpsOpen = %d after every operation settled", n)
	}

	// A batch open across a crash recovers interrupted: nothing open.
	batch, err := c.BatchUninstall(ctx, api.BatchUninstallRequest{User: "alice", Vehicles: []core.VehicleID{"VIN-OO-HELD"}, App: "RemoteControl"})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return pushed() == 2 })
	if n := checkOpsOpen(t, s, "batch open"); n != 2 {
		t.Fatalf("%d open operations, want the batch and its child", n)
	}
	barrier(t, s, "sentinel")
	s.Crash()
	b := openRecovered(t, dir)
	if got, ok := b.Operation(batch.ID); !ok || got.Error == nil || got.Error.Code != api.CodeInterrupted {
		t.Fatalf("recovered batch = %+v, %v", got, ok)
	}
	if n := checkOpsOpen(t, b, "recovered"); n != 0 {
		t.Fatalf("%d open operations after recovery", n)
	}
}
