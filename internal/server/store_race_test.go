package server

import (
	"fmt"
	"sync"
	"testing"

	"dynautosar/internal/api"
	"dynautosar/internal/core"
	"dynautosar/internal/vehicle"
)

// Regression tests for the store aliasing bugs: reads must return deep
// copies, writes must not retain caller memory, and in-place filters
// must not pin removed rows. The hammer test at the bottom runs the
// same surfaces concurrently so the race detector locks the fixes in.

func TestStoreVehicleDeepCopy(t *testing.T) {
	s := NewStore()
	if err := s.AddUser("alice"); err != nil {
		t.Fatal(err)
	}
	conf := modelCarConf("VIN-CP")
	if err := s.BindVehicle("alice", conf); err != nil {
		t.Fatal(err)
	}
	// Mutating the conf the caller kept must not reach the store.
	conf.SWCs[0].VirtualPorts[0].Name = "Hijacked"
	conf.SWCs[1].ECU = "ECU-EVIL"
	vr, ok := s.Vehicle("VIN-CP")
	if !ok {
		t.Fatal("vehicle missing")
	}
	if vr.Conf.SWCs[0].VirtualPorts[0].Name == "Hijacked" || vr.Conf.SWCs[1].ECU == "ECU-EVIL" {
		t.Fatal("BindVehicle retained the caller's slices")
	}
	// Mutating a read must not reach the store either, through Vehicle
	// or Vehicles.
	vr.Conf.SWCs[0].VirtualPorts[0].Name = "Scribbled"
	vr.Conf.SWCs[0].MemoryQuota = -1
	all := s.Vehicles()
	all[0].Conf.SWCs[1].VirtualPorts[0].ID = 99
	again, _ := s.Vehicle("VIN-CP")
	if again.Conf.SWCs[0].VirtualPorts[0].Name == "Scribbled" || again.Conf.SWCs[0].MemoryQuota == -1 {
		t.Fatal("Vehicle returned store-aliased slices")
	}
	if again.Conf.SWCs[1].VirtualPorts[0].ID == 99 {
		t.Fatal("Vehicles returned store-aliased slices")
	}
}

func TestStoreAppDeepCopy(t *testing.T) {
	s := NewStore()
	app := paperApp(t)
	if err := s.UploadApp(app); err != nil {
		t.Fatal(err)
	}
	// The uploader scribbling over its own copy must not corrupt the
	// stored app.
	app.Binaries[0].Manifest.Ports[0].Name = "Hijacked"
	app.Binaries[0].Program[0] ^= 0xFF
	app.Confs[0].Deployments[0].Connections[0].Port = "Hijacked"
	app.Confs[0].Deployments[0].Connections[0].External.Endpoint = "evil:1"
	got, ok := s.App("RemoteControl")
	if !ok {
		t.Fatal("app missing")
	}
	if got.Binaries[0].Manifest.Ports[0].Name == "Hijacked" ||
		got.Confs[0].Deployments[0].Connections[0].Port == "Hijacked" ||
		got.Confs[0].Deployments[0].Connections[0].External.Endpoint == "evil:1" {
		t.Fatal("UploadApp retained the caller's slices")
	}
	if err := got.Binaries[0].Validate(); err != nil {
		t.Fatalf("stored program corrupted by uploader: %v", err)
	}
	// A reader scribbling over its copy must not corrupt the store.
	got.Confs[0].Deployments[0].Plugin = "Scribbled"
	got.Binaries[0].Manifest.Requires = append(got.Binaries[0].Manifest.Requires, "Ghost")
	again, _ := s.App("RemoteControl")
	if again.Confs[0].Deployments[0].Plugin == "Scribbled" || len(again.Binaries[0].Manifest.Requires) != 0 {
		t.Fatal("App returned store-aliased slices")
	}
}

func TestStoreRemoveInstallationUnpinsRows(t *testing.T) {
	s := NewStore()
	for _, a := range []core.AppName{"A", "B", "C"} {
		s.tryRecordInstallation(&api.InstalledApp{App: a, Vehicle: "V"})
	}
	sh := s.shard("V")
	sh.mu.RLock()
	backing := sh.rows["V"]
	sh.mu.RUnlock()
	if len(backing) != 3 {
		t.Fatalf("backing rows = %d, want 3", len(backing))
	}
	s.RemoveInstallation("V", "B")
	// The in-place filter reuses the backing array; the freed tail slot
	// must be nil so the removed row is collectable.
	if backing[2] != nil {
		t.Fatal("RemoveInstallation left a stale row pointer in the tail")
	}
	if backing[0].App != "A" || backing[1].App != "C" {
		t.Fatalf("kept rows = %v, %v", backing[0].App, backing[1].App)
	}
}

func TestStoreDropUninstalledPluginUnpinsRow(t *testing.T) {
	s := NewStore()
	s.tryRecordInstallation(&api.InstalledApp{App: "A", Vehicle: "V",
		Plugins: []api.InstalledPlugin{{Plugin: "P1"}, {Plugin: "P2"}}})
	s.tryRecordInstallation(&api.InstalledApp{App: "B", Vehicle: "V",
		Plugins: []api.InstalledPlugin{{Plugin: "Q", PIC: core.PIC{{Name: "x", ID: 0}}}}})
	sh := s.shard("V")
	sh.mu.RLock()
	backing := sh.rows["V"]
	rowA := backing[0]
	sh.mu.RUnlock()

	// Dropping one of two plug-ins zeroes the vacated tail entry.
	s.DropUninstalledPlugin("V", "A", "P1")
	if got := rowA.Plugins[:2][1]; got.Plugin != "" || got.PIC != nil {
		t.Fatalf("plugin tail not zeroed: %+v", got)
	}
	// Dropping the last plug-in of B removes its row and nils the tail
	// slot of the rows array.
	s.DropUninstalledPlugin("V", "B", "Q")
	if backing[1] != nil {
		t.Fatal("DropUninstalledPlugin left a stale row pointer in the tail")
	}
	if rows := s.InstalledApps("V"); len(rows) != 1 || rows[0].App != "A" {
		t.Fatalf("rows after drops = %+v", rows)
	}
}

// TestStoreAliasRaceHammer runs concurrent readers that scribble over
// everything they read against writers mutating the same records; under
// -race this fails if any read still shares memory with the store.
func TestStoreAliasRaceHammer(t *testing.T) {
	s := NewStore()
	if err := s.AddUser("alice"); err != nil {
		t.Fatal(err)
	}
	app := paperApp(t)
	if err := s.UploadApp(app); err != nil {
		t.Fatal(err)
	}
	const vehicles = 8
	ids := make([]core.VehicleID, vehicles)
	for i := range ids {
		ids[i] = core.VehicleID(fmt.Sprintf("VIN-H-%d", i))
		if err := s.BindVehicle("alice", modelCarConf(ids[i])); err != nil {
			t.Fatal(err)
		}
	}

	const rounds = 200
	var wg sync.WaitGroup
	// Writers: install/ack/uninstall churn per vehicle.
	for _, id := range ids {
		wg.Add(1)
		go func(id core.VehicleID) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				row := &api.InstalledApp{App: "RemoteControl", Vehicle: id, Plugins: []api.InstalledPlugin{
					{Plugin: "COM", ECU: vehicle.ECU1, SWC: vehicle.SWC1, PIC: core.PIC{{Name: "in", ID: 0}}},
					{Plugin: "OP", ECU: vehicle.ECU2, SWC: vehicle.SWC2, PIC: core.PIC{{Name: "in", ID: 0}}},
				}}
				if _, err := s.tryRecordInstallation(row); err != nil {
					continue
				}
				s.MarkInstallAcked(id, "RemoteControl", "COM")
				s.MarkInstallAcked(id, "RemoteControl", "OP")
				s.DropUninstalledPlugin(id, "RemoteControl", "COM")
				s.RemoveInstallation(id, "RemoteControl")
			}
		}(id)
	}
	// Readers: fetch and deliberately scribble over every copy.
	for _, id := range ids {
		wg.Add(1)
		go func(id core.VehicleID) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				if vr, ok := s.Vehicle(id); ok {
					vr.Conf.SWCs[0].VirtualPorts[0].Name = "scribble"
					vr.Conf.Model = "scribble"
				}
				if a, ok := s.App("RemoteControl"); ok {
					a.Binaries[0].Manifest.Ports[0].Name = "scribble"
					a.Confs[0].Deployments[0].Connections[0].Port = "scribble"
				}
				for _, row := range s.InstalledApps(id) {
					for i := range row.Plugins {
						row.Plugins[i].Acked = !row.Plugins[i].Acked
					}
				}
				if row, ok := s.InstalledApp(id, "RemoteControl"); ok && len(row.Plugins) > 0 {
					row.Plugins[0].Plugin = "scribble"
				}
				_ = s.InstalledPlugins(id)
				_ = s.UsedPortIDs(id, vehicle.ECU2, vehicle.SWC2)
				_ = s.Vehicles()
			}
		}(id)
	}
	wg.Wait()

	// The scribbling never reached the store.
	vr, _ := s.Vehicle(ids[0])
	if vr.Conf.Model != "modelcar-v1" {
		t.Fatalf("vehicle conf corrupted: %+v", vr.Conf)
	}
	a, _ := s.App("RemoteControl")
	if a.Binaries[0].Manifest.Ports[0].Name == "scribble" ||
		a.Confs[0].Deployments[0].Connections[0].Port == "scribble" {
		t.Fatal("app record corrupted")
	}
}
