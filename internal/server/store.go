package server

import (
	"sort"
	"sync"

	"dynautosar/internal/api"
	"dynautosar/internal/core"
	"dynautosar/internal/journal"
	"dynautosar/internal/plugin"
	"dynautosar/internal/verify"
)

// The data model of Figure 2: User and Vehicle on the user side, APP
// with its binaries and SW confs on the developer side, Vehicle Conf
// (HW conf, SystemSW conf, InstalledAPP) tying them together. The
// record types themselves are the wire types of internal/api; the Store
// is the thread-safe in-memory database holding them.
//
// The InstalledAPP table — the only part of the store that every
// deploy/uninstall mutates — is sharded by vehicle id, so the parallel
// workers of a batch deployment touching different vehicles never
// serialize on one lock. Users, vehicles and apps stay under a single
// RWMutex: they are read-mostly and their reads scale.

// installedShardCount is the number of InstalledAPP shards; a power of
// two so the shard pick is a mask.
const installedShardCount = 64

// installedShard holds the InstalledAPP rows of the vehicles hashing to
// it, under its own lock.
type installedShard struct {
	mu   sync.RWMutex
	rows map[core.VehicleID][]*api.InstalledApp
	// reserved holds the planned replacement rows of in-flight live
	// upgrades, keyed vehicle|app: their port ids count as used (so a
	// concurrent deploy cannot claim them between upgrade planning and
	// commit) without the row being visible as installed.
	reserved map[string]*api.InstalledApp
}

// Store is the thread-safe in-memory database of the trusted server.
type Store struct {
	mu       sync.RWMutex
	users    map[core.UserID]*api.User
	vehicles map[core.VehicleID]*api.VehicleRecord
	apps     map[core.AppName]*api.App

	installed [installedShardCount]installedShard

	// jn receives one mutation record per store write: journal.Nop on a
	// memory-only store, the server's journal once OpenJournal attached
	// it. Records are enqueued while the mutation's lock is held — so
	// the journal order is a linearization of the store's mutation order
	// — and any durability wait happens after it is released, so no lock
	// is ever held across an fsync.
	//
	// Durability policy: mutations that gate an external side effect or
	// return errors (AddUser, BindVehicle, UploadApp, the
	// check-and-record of a deploy) block until their record is on disk
	// and roll back if it cannot be — write-ahead semantics: packages
	// only go on the wire for durable rows. The void acknowledgement-
	// path mutations (acks, removals, plugin drops) enqueue without
	// waiting: the vehicle holds the ground truth they mirror, their
	// records still commit with the next waited commit or when the
	// journal's linger bound (2 ms) runs out, and a crash before that
	// merely under-reports — recovery shows an install unacked that the
	// vehicle acked, never the reverse. Blocking the per-vehicle ECM read loop one fsync per
	// ack would put two more commit hops on every deploy's critical
	// path for no safety gain.
	jn journal.Appender
}

// waitDurable resolves an appended record's ticket into a typed API
// error; journal.Nop hands out the zero Ticket, which is resolved.
func waitDurable(t journal.Ticket) error {
	if err := t.Wait(); err != nil {
		return api.Errorf(api.CodeInternal, "server: journal: %v", err)
	}
	return nil
}

// NewStore creates an empty store.
func NewStore() *Store {
	s := &Store{
		users:    make(map[core.UserID]*api.User),
		vehicles: make(map[core.VehicleID]*api.VehicleRecord),
		apps:     make(map[core.AppName]*api.App),
		jn:       journal.Nop{},
	}
	for i := range s.installed {
		s.installed[i].rows = make(map[core.VehicleID][]*api.InstalledApp)
		s.installed[i].reserved = make(map[string]*api.InstalledApp)
	}
	return s
}

// shardIndex hashes a vehicle id onto [0, installedShardCount) with
// FNV-1a; shared by the store's shards and the server's per-vehicle
// deploy stripes.
func shardIndex(vehicle core.VehicleID) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(vehicle); i++ {
		h = (h ^ uint32(vehicle[i])) * 16777619
	}
	return h & (installedShardCount - 1)
}

// shard picks the InstalledAPP shard of a vehicle.
func (s *Store) shard(vehicle core.VehicleID) *installedShard {
	return &s.installed[shardIndex(vehicle)]
}

// AddUser creates a user account (user setup, paper section 3.2.2).
func (s *Store) AddUser(id core.UserID) error {
	if id == "" {
		return api.Errorf(api.CodeInvalidArgument, "server: empty user id")
	}
	s.mu.Lock()
	if !s.addUserLocked(id) {
		s.mu.Unlock()
		return api.Errorf(api.CodeAlreadyExists, "server: user %q exists", id)
	}
	t := s.jn.Append(journal.UserAddedRec(id))
	s.mu.Unlock()
	if err := waitDurable(t); err != nil {
		s.mu.Lock()
		delete(s.users, id)
		s.mu.Unlock()
		return err
	}
	return nil
}

// addUserLocked is the applier of user_added (see applyRecord): it
// creates the account unless it exists. Called with s.mu held.
func (s *Store) addUserLocked(id core.UserID) bool {
	if _, dup := s.users[id]; dup {
		return false
	}
	s.users[id] = &api.User{ID: id}
	return true
}

// User returns a copy of the user record.
func (s *Store) User(id core.UserID) (api.User, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	u, ok := s.users[id]
	if !ok {
		return api.User{}, false
	}
	cp := *u
	cp.Vehicles = append([]core.VehicleID(nil), u.Vehicles...)
	return cp, true
}

// BindVehicle registers a vehicle with its configuration and binds it to
// a user, "allowing the server to keep track of specific
// Vehicle-User-configurations".
func (s *Store) BindVehicle(owner core.UserID, conf core.VehicleConf) error {
	if err := conf.Validate(); err != nil {
		return api.Errorf(api.CodeInvalidArgument, "%v", err)
	}
	s.mu.Lock()
	if _, ok := s.users[owner]; !ok {
		s.mu.Unlock()
		return api.Errorf(api.CodeNotFound, "server: unknown user %q", owner)
	}
	// Copy on write: an in-process caller holding the conf must not be
	// able to mutate the stored record afterwards.
	if !s.bindVehicleLocked(owner, copyVehicleConf(conf)) {
		s.mu.Unlock()
		return api.Errorf(api.CodeAlreadyExists, "server: vehicle %q already bound", conf.Vehicle)
	}
	// Append serializes synchronously, so the caller's conf needs no
	// extra defensive copy for the record.
	t := s.jn.Append(journal.VehicleBoundRec(owner, conf))
	s.mu.Unlock()
	if err := waitDurable(t); err != nil {
		s.mu.Lock()
		delete(s.vehicles, conf.Vehicle)
		if u, ok := s.users[owner]; ok {
			// Filter rather than pop: a concurrent bind for the same
			// owner may have appended behind this one.
			kept := u.Vehicles[:0]
			for _, v := range u.Vehicles {
				if v != conf.Vehicle {
					kept = append(kept, v)
				}
			}
			u.Vehicles = kept
		}
		s.mu.Unlock()
		return err
	}
	return nil
}

// bindVehicleLocked is the applier of vehicle_bound: it registers the
// vehicle under owner unless it is bound already, keeping the owner's
// vehicles in bind order. Called with s.mu held.
func (s *Store) bindVehicleLocked(owner core.UserID, conf core.VehicleConf) bool {
	if _, dup := s.vehicles[conf.Vehicle]; dup {
		return false
	}
	u := s.users[owner]
	if u == nil {
		// Replay only (BindVehicle checks the owner first): the user
		// record always precedes its vehicles in the log.
		u = &api.User{ID: owner}
		s.users[owner] = u
	}
	s.vehicles[conf.Vehicle] = &api.VehicleRecord{ID: conf.Vehicle, Owner: owner, Conf: conf}
	u.Vehicles = append(u.Vehicles, conf.Vehicle)
	return true
}

// copyVehicleConf deep-copies a vehicle conf: the SWCs slice and each
// SW-C's VirtualPorts, so no caller shares backing arrays with the
// store.
func copyVehicleConf(c core.VehicleConf) core.VehicleConf {
	if c.SWCs == nil {
		return c
	}
	swcs := make([]core.SWCConf, len(c.SWCs))
	for i, swc := range c.SWCs {
		swc.VirtualPorts = append([]core.VirtualPortSpec(nil), swc.VirtualPorts...)
		swcs[i] = swc
	}
	c.SWCs = swcs
	return c
}

// snapshotVehicle copies a vehicle record including its nested conf
// slices; called with s.mu held (read or write).
func snapshotVehicle(v *api.VehicleRecord) api.VehicleRecord {
	cp := *v
	cp.Conf = copyVehicleConf(v.Conf)
	return cp
}

// Vehicle returns a copy of the vehicle record.
func (s *Store) Vehicle(id core.VehicleID) (api.VehicleRecord, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	v, ok := s.vehicles[id]
	if !ok {
		return api.VehicleRecord{}, false
	}
	return snapshotVehicle(v), true
}

// Vehicles returns all vehicle records, sorted by id.
func (s *Store) Vehicles() []api.VehicleRecord {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]api.VehicleRecord, 0, len(s.vehicles))
	for _, v := range s.vehicles {
		out = append(out, snapshotVehicle(v))
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// SelectVehicles returns the ids of the vehicles owned by owner (any
// owner when empty) whose model matches model (any model when empty),
// sorted by id — the resolution of a fleet selector.
func (s *Store) SelectVehicles(owner core.UserID, model string) []core.VehicleID {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var out []core.VehicleID
	for id, v := range s.vehicles {
		if owner != "" && v.Owner != owner {
			continue
		}
		if model != "" && v.Conf.Model != model {
			continue
		}
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// UploadApp stores an application: validated binaries and SW confs
// (upload operations, paper section 3.2.2).
func (s *Store) UploadApp(app api.App) error {
	if app.Name == "" {
		return api.Errorf(api.CodeInvalidArgument, "server: app without a name")
	}
	if len(app.Binaries) == 0 {
		return api.Errorf(api.CodeInvalidArgument, "server: app %q has no binaries", app.Name)
	}
	names := make(map[core.PluginName]bool, len(app.Binaries))
	optimized := make([]plugin.Binary, len(app.Binaries))
	for i, b := range app.Binaries {
		// VerifyBinary subsumes b.Validate(): structural validation plus
		// the abstract-interpretation proof that no handler can trap on
		// stack bounds, call depth or control falling off the code.
		if err := verify.VerifyBinary(b); err != nil {
			return api.Errorf(api.CodeInvalidArgument, "server: app %q: %v", app.Name, err)
		}
		if names[b.Manifest.Name] {
			return api.Errorf(api.CodeInvalidArgument, "server: app %q has duplicate plug-in %s", app.Name, b.Manifest.Name)
		}
		names[b.Manifest.Name] = true
		// Store the optimized form when the dataflow passes improve the
		// program AND the translation-validation gate certifies it
		// (re-verification plus differential execution); any gate failure
		// falls back to the verified original — optimization is never
		// allowed to reject an upload.
		if nb, _, err := verify.OptimizeBinary(b); err == nil {
			optimized[i] = nb
		} else {
			optimized[i] = b
		}
	}
	app.Binaries = optimized
	models := make(map[string]bool, len(app.Confs))
	for _, c := range app.Confs {
		if err := c.Validate(); err != nil {
			return api.Errorf(api.CodeInvalidArgument, "server: app %q: %v", app.Name, err)
		}
		if models[c.Model] {
			return api.Errorf(api.CodeInvalidArgument, "server: app %q has duplicate conf for model %q", app.Name, c.Model)
		}
		models[c.Model] = true
		for _, d := range c.Deployments {
			if !names[d.Plugin] {
				return api.Errorf(api.CodeInvalidArgument, "server: app %q: conf for %q deploys unknown plug-in %s",
					app.Name, c.Model, d.Plugin)
			}
		}
	}
	// Copy on write: the uploader keeps its slices, the store keeps its
	// own.
	cp := copyApp(&app)
	s.mu.Lock()
	if !s.addAppLocked(&cp) {
		s.mu.Unlock()
		return api.Errorf(api.CodeAlreadyExists, "server: app %q exists", app.Name)
	}
	// Append serializes the record before returning, so handing it the
	// stored copy is aliasing-safe and needs no second deep copy.
	t := s.jn.Append(journal.AppUploadedRec(cp))
	s.mu.Unlock()
	if err := waitDurable(t); err != nil {
		s.mu.Lock()
		delete(s.apps, app.Name)
		s.mu.Unlock()
		return err
	}
	return nil
}

// addAppLocked is the applier of app_uploaded: it stores app unless
// one of that name exists. Called with s.mu held.
func (s *Store) addAppLocked(app *api.App) bool {
	if _, dup := s.apps[app.Name]; dup {
		return false
	}
	s.apps[app.Name] = app
	return true
}

// copyApp deep-copies an application record: binaries (program bytes and
// manifest slices) and SW confs (deployments, connections, external
// specs), so neither uploads nor reads share memory with the store.
func copyApp(a *api.App) api.App {
	cp := *a
	if a.Binaries != nil {
		cp.Binaries = make([]plugin.Binary, len(a.Binaries))
		for i, b := range a.Binaries {
			b.Program = append([]byte(nil), b.Program...)
			b.Manifest.Ports = append([]core.PluginPortSpec(nil), b.Manifest.Ports...)
			b.Manifest.Requires = append([]core.PluginName(nil), b.Manifest.Requires...)
			b.Manifest.Conflicts = append([]core.PluginName(nil), b.Manifest.Conflicts...)
			cp.Binaries[i] = b
		}
	}
	if a.Confs != nil {
		cp.Confs = make([]api.SWConf, len(a.Confs))
		for i, c := range a.Confs {
			cp.Confs[i] = copySWConf(c)
		}
	}
	return cp
}

// copySWConf deep-copies one SW conf.
func copySWConf(c api.SWConf) api.SWConf {
	if c.Deployments == nil {
		return c
	}
	deps := make([]api.Deployment, len(c.Deployments))
	for i, d := range c.Deployments {
		if d.Connections != nil {
			conns := make([]api.PortConnection, len(d.Connections))
			for j, conn := range d.Connections {
				if conn.External != nil {
					ext := *conn.External
					conn.External = &ext
				}
				conns[j] = conn
			}
			d.Connections = conns
		}
		deps[i] = d
	}
	c.Deployments = deps
	return c
}

// HasApp reports whether an application is stored, without paying for
// the deep copy App makes.
func (s *Store) HasApp(name core.AppName) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	_, ok := s.apps[name]
	return ok
}

// App returns a copy of an application record.
func (s *Store) App(name core.AppName) (api.App, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	a, ok := s.apps[name]
	if !ok {
		return api.App{}, false
	}
	return copyApp(a), true
}

// Apps lists the stored application names, sorted.
func (s *Store) Apps() []core.AppName {
	s.mu.RLock()
	defer s.mu.RUnlock()
	names := make([]core.AppName, 0, len(s.apps))
	for n := range s.apps {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return names[i] < names[j] })
	return names
}

// tryRecordInstallation adds an InstalledAPP row unless the app
// already has one on the vehicle — the atomic check-and-record that
// keeps concurrent duplicate deploys from double-installing — and
// enqueues its record. The durability wait is the caller's: the deploy
// path waits after releasing its per-vehicle stripe, so concurrent
// deploys overlap their group commits instead of serializing
// stripe-by-stripe, and it pushes no package before the row is durable.
func (s *Store) tryRecordInstallation(ia *api.InstalledApp) (journal.Ticket, error) {
	sh := s.shard(ia.Vehicle)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if !insertRowLocked(sh, ia) {
		return journal.Ticket{}, api.Errorf(api.CodeAlreadyExists, "server: app %s already installed on %s", ia.App, ia.Vehicle)
	}
	return s.jn.Append(journal.InstallRecordedRec(snapshotRow(ia))), nil
}

// rollbackInstallation undoes a recorded row whose journal record never
// became durable; no removal record is written — for the journal the
// row never existed.
func (s *Store) rollbackInstallation(vehicle core.VehicleID, app core.AppName) {
	sh := s.shard(vehicle)
	sh.mu.Lock()
	removeRowLocked(sh, vehicle, app)
	sh.mu.Unlock()
}

// insertRowLocked is the applier of install_recorded: it adds row
// unless its app already has one on the vehicle. Shard lock held.
func insertRowLocked(sh *installedShard, row *api.InstalledApp) bool {
	for _, r := range sh.rows[row.Vehicle] {
		if r.App == row.App {
			return false
		}
	}
	sh.rows[row.Vehicle] = append(sh.rows[row.Vehicle], row)
	return true
}

// replaceRowLocked is the applier of upgrade_committed: the row of
// fromApp gives way to row. Shard lock held.
func replaceRowLocked(sh *installedShard, fromApp core.AppName, row *api.InstalledApp) bool {
	removed := removeRowLocked(sh, row.Vehicle, fromApp)
	inserted := insertRowLocked(sh, row)
	return removed || inserted
}

// removeRowLocked is the applier of install_removed: it deletes the
// row of app on vehicle. Shard lock held.
func removeRowLocked(sh *installedShard, vehicle core.VehicleID, app core.AppName) bool {
	rows := sh.rows[vehicle]
	kept := rows[:0]
	for _, r := range rows {
		if r.App != app {
			kept = append(kept, r)
		}
	}
	if len(kept) == len(rows) {
		return false
	}
	// Nil out the tail so the removed rows are collectable instead of
	// staying pinned by the backing array.
	for i := len(kept); i < len(rows); i++ {
		rows[i] = nil
	}
	if len(kept) == 0 {
		delete(sh.rows, vehicle)
		return true
	}
	sh.rows[vehicle] = kept
	return true
}

// RemoveInstallation deletes the row of app on vehicle.
func (s *Store) RemoveInstallation(vehicle core.VehicleID, app core.AppName) {
	sh := s.shard(vehicle)
	sh.mu.Lock()
	if removeRowLocked(sh, vehicle, app) {
		s.jn.Append(journal.InstallRemovedRec(vehicle, app))
	}
	sh.mu.Unlock()
}

// snapshotRow copies a row so readers never share memory with the
// ack path's mutations; called with the row's shard lock held.
func snapshotRow(r *api.InstalledApp) api.InstalledApp {
	cp := *r
	cp.Plugins = append([]api.InstalledPlugin(nil), r.Plugins...)
	return cp
}

// InstalledApps returns copies of the InstalledAPP rows of a vehicle.
func (s *Store) InstalledApps(vehicle core.VehicleID) []api.InstalledApp {
	sh := s.shard(vehicle)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	out := make([]api.InstalledApp, 0, len(sh.rows[vehicle]))
	for _, r := range sh.rows[vehicle] {
		out = append(out, snapshotRow(r))
	}
	return out
}

// InstalledApp returns a copy of one row.
func (s *Store) InstalledApp(vehicle core.VehicleID, app core.AppName) (api.InstalledApp, bool) {
	sh := s.shard(vehicle)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	for _, r := range sh.rows[vehicle] {
		if r.App == app {
			return snapshotRow(r), true
		}
	}
	return api.InstalledApp{}, false
}

// MarkInstallAcked records the vehicle's acknowledgement of one
// plug-in installation.
func (s *Store) MarkInstallAcked(vehicle core.VehicleID, app core.AppName, plugin core.PluginName) {
	sh := s.shard(vehicle)
	sh.mu.Lock()
	if markAckedLocked(sh, vehicle, app, plugin) {
		s.jn.Append(journal.InstallAckedRec(vehicle, app, plugin))
	}
	sh.mu.Unlock()
}

// markAckedLocked is the applier of install_acked: it flips the acked
// flag of one plug-in. Shard lock held.
func markAckedLocked(sh *installedShard, vehicle core.VehicleID, app core.AppName, plugin core.PluginName) bool {
	marked := false
	for _, r := range sh.rows[vehicle] {
		if r.App != app {
			continue
		}
		for i := range r.Plugins {
			if r.Plugins[i].Plugin == plugin {
				r.Plugins[i].Acked = true
				marked = true
			}
		}
	}
	return marked
}

// DropUninstalledPlugin removes an acknowledged uninstallation from its
// row, deleting the row once its last plug-in is gone.
func (s *Store) DropUninstalledPlugin(vehicle core.VehicleID, app core.AppName, plugin core.PluginName) {
	sh := s.shard(vehicle)
	sh.mu.Lock()
	if dropPluginLocked(sh, vehicle, app, plugin) {
		s.jn.Append(journal.PluginDroppedRec(vehicle, app, plugin))
	}
	sh.mu.Unlock()
}

// dropPluginLocked is the applier of plugin_dropped: it removes one
// plug-in from its row. Shard lock held.
func dropPluginLocked(sh *installedShard, vehicle core.VehicleID, app core.AppName, plugin core.PluginName) bool {
	rows := sh.rows[vehicle]
	for ri, r := range rows {
		if r.App != app {
			continue
		}
		kept := r.Plugins[:0]
		for _, p := range r.Plugins {
			if p.Plugin != plugin {
				kept = append(kept, p)
			}
		}
		if len(kept) == len(r.Plugins) {
			return false
		}
		// Zero the tail so dropped entries release their PIC slices.
		for i := len(kept); i < len(r.Plugins); i++ {
			r.Plugins[i] = api.InstalledPlugin{}
		}
		r.Plugins = kept
		if len(kept) == 0 {
			copy(rows[ri:], rows[ri+1:])
			rows[len(rows)-1] = nil // unpin the removed row
			if len(rows) == 1 {
				delete(sh.rows, vehicle)
			} else {
				sh.rows[vehicle] = rows[:len(rows)-1]
			}
		}
		return true
	}
	return false
}

// InstalledPlugins returns all plug-ins installed on a vehicle across
// apps.
func (s *Store) InstalledPlugins(vehicle core.VehicleID) []api.InstalledPlugin {
	sh := s.shard(vehicle)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	var out []api.InstalledPlugin
	for _, r := range sh.rows[vehicle] {
		out = append(out, r.Plugins...)
	}
	return out
}

// UsedPortIDs returns the port ids already allocated on one SW-C of a
// vehicle — installed rows plus the planned rows of in-flight live
// upgrades — the knowledge the PIC generator needs for SW-C-scope
// uniqueness.
func (s *Store) UsedPortIDs(vehicle core.VehicleID, ecu core.ECUID, swc core.SWCID) map[core.PluginPortID]bool {
	sh := s.shard(vehicle)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	used := make(map[core.PluginPortID]bool)
	mark := func(r *api.InstalledApp) {
		for _, p := range r.Plugins {
			if p.ECU == ecu && p.SWC == swc {
				for _, e := range p.PIC {
					used[e.ID] = true
				}
			}
		}
	}
	for _, r := range sh.rows[vehicle] {
		mark(r)
	}
	for _, r := range sh.reserved {
		if r.Vehicle == vehicle {
			mark(r)
		}
	}
	return used
}

// ReservedUpgradeRows returns copies of the planned replacement rows of
// in-flight live upgrades on a vehicle — the port-id claims that
// concurrent planning (and the plan verifier) must steer around.
func (s *Store) ReservedUpgradeRows(vehicle core.VehicleID) []api.InstalledApp {
	sh := s.shard(vehicle)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	var out []api.InstalledApp
	for _, r := range sh.reserved {
		if r.Vehicle == vehicle {
			out = append(out, snapshotRow(r))
		}
	}
	return out
}

// --- live-upgrade row transactions -------------------------------------------

// upgradeKey names a reservation: the planned new row of an upgrade on
// a vehicle.
func upgradeKey(vehicle core.VehicleID, app core.AppName) string {
	return string(vehicle) + "|" + string(app)
}

// ReserveUpgrade registers the planned replacement row of a live
// upgrade: its port ids become unavailable to concurrent deploy
// planning, but the row is not installed. Reservations are transient —
// never journaled — because a crash interrupts the upgrade anyway and
// recovery resolves to the old row.
func (s *Store) ReserveUpgrade(row *api.InstalledApp) {
	sh := s.shard(row.Vehicle)
	sh.mu.Lock()
	sh.reserved[upgradeKey(row.Vehicle, row.App)] = row
	sh.mu.Unlock()
}

// ReleaseUpgrade drops a reservation without committing (rollback or
// failed launch).
func (s *Store) ReleaseUpgrade(vehicle core.VehicleID, app core.AppName) {
	sh := s.shard(vehicle)
	sh.mu.Lock()
	delete(sh.reserved, upgradeKey(vehicle, app))
	sh.mu.Unlock()
}

// CommitUpgrade atomically replaces the old app's row with the fully
// acknowledged replacement row and releases its reservation — the
// store-side commit point of a live upgrade: before it the vehicle's
// record is exactly the old version, after it exactly the new one. The
// commit is refused if the old row vanished or the new app's row
// appeared concurrently (both indicate an interleaved operation the
// upgrade lost to).
func (s *Store) CommitUpgrade(fromApp core.AppName, row *api.InstalledApp) error {
	sh := s.shard(row.Vehicle)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	delete(sh.reserved, upgradeKey(row.Vehicle, row.App))
	var old *api.InstalledApp
	for _, r := range sh.rows[row.Vehicle] {
		if r.App == fromApp {
			old = r
		}
		if r.App == row.App {
			return api.Errorf(api.CodeAlreadyExists,
				"server: app %s appeared on %s during the upgrade", row.App, row.Vehicle)
		}
	}
	if old == nil {
		return api.Errorf(api.CodeFailedPrecondition,
			"server: app %s disappeared from %s during the upgrade", fromApp, row.Vehicle)
	}
	replaceRowLocked(sh, fromApp, row)
	// Ack-path policy: enqueue without waiting — the vehicle already
	// committed the swap and holds the ground truth; the record rides
	// the next group commit. A crash inside that window under-reports
	// (recovery shows the old version while the vehicle runs the new),
	// the same conservative-loss shape as lost ack records.
	s.jn.Append(journal.UpgradeCommittedRec(row.Vehicle, fromApp, snapshotRow(row)))
	return nil
}
