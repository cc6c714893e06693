package fleetsim

import (
	"context"
	"fmt"
	"os"
	"path/filepath"

	"dynautosar/internal/api"
	"dynautosar/internal/core"
	"dynautosar/internal/federation"
	"dynautosar/internal/journal"
	"dynautosar/internal/server"
)

// fleetShard is one shard of the control plane inside the simulator: a
// leader server, journaling to its own directory when the scenario
// needs a journal and, in a ring of more than one shard, replicating
// synchronously — through the real Shipper/Replica path — into a
// follower replica that a ShardCrash promotes. All fields are
// pump-owned, like the rest of the Fleet.
type fleetShard struct {
	name string
	srv  *server.Server // nil while crashed (between kill and recovery)
	// gen bumps on every crash so links and operations can tell which
	// incarnation they belong to.
	gen int
	// everCrashed excludes this shard from statz cross-checks: its
	// in-memory counters reset with the recovery.
	everCrashed bool
	// degradedGens marks incarnations whose journal took a durability
	// fault (disk full): commit records acknowledged by that incarnation
	// may never have reached disk, so a later recovery can legitimately
	// revert work the tracker saw succeed.
	degradedGens map[int]bool

	dir     string           // leader journal directory ("" = memory-only)
	replica *journal.Replica // nil without a follower (one shard, or promoted)
	shipper *journal.Shipper
}

// journaled reports whether the scenario's shards keep a journal:
// replication rides the journal's commit path, and a crash or a disk
// fault needs one to act on.
func (sc Scenario) journaled() bool {
	if sc.Shards > 1 {
		return true
	}
	for _, fa := range sc.Faults {
		switch fa.(type) {
		case ShardCrash, JournalFault:
			return true
		}
	}
	return false
}

// shardIdxOf maps a vehicle to its owning shard's index via the same
// consistent-hash ring the federation router uses.
func (f *Fleet) shardIdxOf(id core.VehicleID) int {
	return f.shardByName[f.ring.Owner(id)]
}

// qkey qualifies a per-shard operation id for tracker maps: operation
// ids are only unique within one shard's registry, so map keys carry
// the shard name.
func (f *Fleet) qkey(idx int, id string) string {
	return f.shards[idx].name + "/" + id
}

// setup builds the ring: one leader per shard (journaled under a common
// temporary root when the scenario needs it, with a follower replica
// when there is more than one shard), user and apps uploaded to every
// shard, each vehicle bound only to its ring owner.
func (f *Fleet) setup() error {
	journaled := f.sc.journaled()
	if journaled {
		root, err := os.MkdirTemp("", "fleetsim-")
		if err != nil {
			return err
		}
		f.dir = root
	}
	names := make([]string, f.sc.Shards)
	for i := range names {
		names[i] = fmt.Sprintf("s%d", i)
	}
	f.ring = federation.NewRing(names, 0)
	f.shardByName = make(map[string]int, len(names))
	ctx := context.Background()
	for i, name := range names {
		f.shardByName[name] = i
		sh := &fleetShard{name: name, degradedGens: make(map[int]bool)}
		f.shards = append(f.shards, sh)
		srv := server.New()
		srv.SetShard(name)
		sh.srv = srv
		if journaled {
			sh.dir = filepath.Join(f.dir, name, "leader")
			if err := srv.OpenJournal(sh.dir); err != nil {
				return fmt.Errorf("shard %s: %w", name, err)
			}
		}
		if err := srv.BecomeLeader("boot"); err != nil {
			return fmt.Errorf("shard %s: %w", name, err)
		}
		if len(names) > 1 {
			replica, err := journal.OpenReplica(filepath.Join(f.dir, name, "replica"), nil)
			if err != nil {
				return fmt.Errorf("shard %s replica: %w", name, err)
			}
			sh.replica = replica
			shipper, err := srv.StartReplication(
				[]journal.Follower{{Name: name + "-follower", T: journal.LocalTransport{R: replica}}},
				journal.ShipperOptions{Synchronous: true},
			)
			if err != nil {
				return fmt.Errorf("shard %s replication: %w", name, err)
			}
			sh.shipper = shipper
		}

		cl := api.NewLocalClient(srv.Service())
		if _, err := cl.CreateUser(ctx, api.CreateUserRequest{ID: fleetUser}); err != nil {
			return err
		}
		for _, app := range f.sc.Apps {
			if _, err := cl.UploadApp(ctx, app); err != nil {
				return fmt.Errorf("shard %s: upload %s: %w", name, app.Name, err)
			}
		}
	}
	for _, app := range f.sc.Apps {
		vers := make(map[core.PluginName]string, len(app.Binaries))
		for _, b := range app.Binaries {
			vers[b.Manifest.Name] = b.Manifest.Version
		}
		f.appVer[app.Name] = vers
	}
	for i := 0; i < f.sc.Vehicles; i++ {
		id := core.VehicleID(fmt.Sprintf("VIN-F-%05d", i))
		idx := f.shardIdxOf(id)
		cl := api.NewLocalClient(f.shards[idx].srv.Service())
		if _, err := cl.BindVehicle(ctx, api.BindVehicleRequest{Owner: fleetUser, Conf: fleetConf(id)}); err != nil {
			return fmt.Errorf("bind %s: %w", id, err)
		}
		v := newSimVehicle(f, i, id)
		v.shardIdx = idx
		f.vehicles = append(f.vehicles, v)
		f.byID[id] = v
	}
	return nil
}

// crashShard kills shard idx's leader exactly like a power cut: the
// journal freezes at its last group commit, the shipper stops, and
// every vehicle link into the dying pusher collapses. A replica keeps
// whatever was acknowledged — synchronous shipping means every settled
// durability ticket already reached it.
func (f *Fleet) crashShard(idx int) {
	sh := f.shards[idx]
	if sh.srv == nil {
		return
	}
	f.tracef("shard %s crash", sh.name)
	f.logf("fleetsim: t=%s shard %s crash (gen %d)", f.vt(), sh.name, sh.gen)
	f.m.faults++
	f.m.serverCrashes++
	sh.everCrashed = true
	old := sh.srv
	oldGen := sh.gen
	sh.srv = nil
	sh.gen++
	if jn := old.Journal(); jn != nil {
		jn.Crash()
	}
	if sh.shipper != nil {
		sh.shipper.Close()
		sh.shipper = nil
	}
	old.Pusher().CloseAll()
	// Sweep links that were dialling into the dying pusher and missed
	// CloseAll (hello not yet registered).
	for _, v := range f.vehicles {
		if v.shardIdx == idx && v.conn != nil && v.srvGen == oldGen {
			v.dropLink()
		}
	}
}

// recoverShard brings crashed shard idx back: a fresh server opens a
// journal, settles interrupted operations from it, claims a higher
// leadership epoch, and takes over the shard's vehicles as they redial
// on backoff. With a follower the journal is the replica's (promotion,
// the failover path), otherwise the shard's own (restart).
func (f *Fleet) recoverShard(idx int) {
	sh := f.shards[idx]
	if f.closed || sh.srv != nil {
		return
	}
	reason := "restart"
	if sh.replica != nil {
		sh.replica.Close()
		sh.dir, sh.replica, reason = sh.replica.Dir(), nil, "promoted"
	}
	srv := server.New()
	srv.SetShard(sh.name)
	if err := srv.OpenJournal(sh.dir); err != nil {
		f.violationf("shard %s recovery failed: %v", sh.name, err)
		return
	}
	if err := srv.BecomeLeader(reason); err != nil {
		f.violationf("shard %s recovery failed to claim epoch: %v", sh.name, err)
		srv.Close()
		return
	}
	h := srv.Health()
	f.m.recoveredRecords += h.RecoveredRecords
	f.m.interruptedOps += h.InterruptedOperations
	sh.srv = srv
	f.tracef("shard %s %s", sh.name, reason)
	f.logf("fleetsim: t=%s shard %s %s (gen %d, %d records recovered, %d operations interrupted)",
		f.vt(), sh.name, reason, sh.gen, h.RecoveredRecords, h.InterruptedOperations)
}

// partitionTargets splits a workload target list by owning shard,
// preserving order within each shard; returned slices are indexed by
// shard and may be empty.
func (f *Fleet) partitionTargets(targets []core.VehicleID) [][]core.VehicleID {
	out := make([][]core.VehicleID, len(f.shards))
	for _, id := range targets {
		idx := f.shardIdxOf(id)
		out[idx] = append(out[idx], id)
	}
	return out
}
