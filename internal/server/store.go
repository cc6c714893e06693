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
	rows map[core.VehicleID][]*InstalledApp
	// reserved holds the planned replacement rows of in-flight live
	// upgrades, keyed vehicle|app: their port ids count as used (so a
	// concurrent deploy cannot claim them between upgrade planning and
	// commit) without the row being visible as installed.
	reserved map[string]*InstalledApp
}

// Store is the thread-safe in-memory database of the trusted server.
type Store struct {
	mu       sync.RWMutex
	users    map[core.UserID]*User
	vehicles map[core.VehicleID]*VehicleRecord
	apps     map[core.AppName]*App

	installed [installedShardCount]installedShard

	// jn receives one mutation record per store write (nil keeps the
	// pure in-memory path). Records are enqueued while the mutation's
	// lock is held — so the journal order is a linearization of the
	// store's mutation order — and any durability wait happens after it
	// is released, so no lock is ever held across an fsync.
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

// SetJournal routes mutation records to a journal backend. It must be
// called before the store serves traffic (server.Open does).
func (s *Store) SetJournal(a journal.Appender) { s.jn = a }

// waitDurable resolves an appended record's ticket into a typed API
// error; t may be the zero Ticket when journaling is off.
func waitDurable(t journal.Ticket) error {
	if err := t.Wait(); err != nil {
		return api.Errorf(api.CodeInternal, "server: journal: %v", err)
	}
	return nil
}

// NewStore creates an empty store.
func NewStore() *Store {
	s := &Store{
		users:    make(map[core.UserID]*User),
		vehicles: make(map[core.VehicleID]*VehicleRecord),
		apps:     make(map[core.AppName]*App),
	}
	for i := range s.installed {
		s.installed[i].rows = make(map[core.VehicleID][]*InstalledApp)
		s.installed[i].reserved = make(map[string]*InstalledApp)
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
	if _, dup := s.users[id]; dup {
		s.mu.Unlock()
		return api.Errorf(api.CodeAlreadyExists, "server: user %q exists", id)
	}
	s.users[id] = &User{ID: id}
	var t journal.Ticket
	if s.jn != nil {
		t = s.jn.Append(journal.UserAddedRec(id))
	}
	s.mu.Unlock()
	if err := waitDurable(t); err != nil {
		s.mu.Lock()
		delete(s.users, id)
		s.mu.Unlock()
		return err
	}
	return nil
}

// User returns a copy of the user record.
func (s *Store) User(id core.UserID) (User, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	u, ok := s.users[id]
	if !ok {
		return User{}, false
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
	u, ok := s.users[owner]
	if !ok {
		s.mu.Unlock()
		return api.Errorf(api.CodeNotFound, "server: unknown user %q", owner)
	}
	if _, dup := s.vehicles[conf.Vehicle]; dup {
		s.mu.Unlock()
		return api.Errorf(api.CodeAlreadyExists, "server: vehicle %q already bound", conf.Vehicle)
	}
	// Copy on write: an in-process caller holding the conf must not be
	// able to mutate the stored record afterwards.
	s.vehicles[conf.Vehicle] = &VehicleRecord{ID: conf.Vehicle, Owner: owner, Conf: copyVehicleConf(conf)}
	u.Vehicles = append(u.Vehicles, conf.Vehicle)
	var t journal.Ticket
	if s.jn != nil {
		// Append serializes synchronously, so the caller's conf needs no
		// extra defensive copy for the record.
		t = s.jn.Append(journal.VehicleBoundRec(owner, conf))
	}
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
func snapshotVehicle(v *VehicleRecord) VehicleRecord {
	cp := *v
	cp.Conf = copyVehicleConf(v.Conf)
	return cp
}

// Vehicle returns a copy of the vehicle record.
func (s *Store) Vehicle(id core.VehicleID) (VehicleRecord, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	v, ok := s.vehicles[id]
	if !ok {
		return VehicleRecord{}, false
	}
	return snapshotVehicle(v), true
}

// Vehicles returns all vehicle records, sorted by id.
func (s *Store) Vehicles() []VehicleRecord {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]VehicleRecord, 0, len(s.vehicles))
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
func (s *Store) UploadApp(app App) error {
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
	s.mu.Lock()
	if _, dup := s.apps[app.Name]; dup {
		s.mu.Unlock()
		return api.Errorf(api.CodeAlreadyExists, "server: app %q exists", app.Name)
	}
	// Copy on write: the uploader keeps its slices, the store keeps its
	// own.
	cp := copyApp(&app)
	s.apps[app.Name] = &cp
	var t journal.Ticket
	if s.jn != nil {
		// Append serializes the record before returning, so handing it
		// the stored copy is aliasing-safe and needs no second deep copy.
		t = s.jn.Append(journal.AppUploadedRec(cp))
	}
	s.mu.Unlock()
	if err := waitDurable(t); err != nil {
		s.mu.Lock()
		delete(s.apps, app.Name)
		s.mu.Unlock()
		return err
	}
	return nil
}

// copyApp deep-copies an application record: binaries (program bytes and
// manifest slices) and SW confs (deployments, connections, external
// specs), so neither uploads nor reads share memory with the store.
func copyApp(a *App) App {
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
		cp.Confs = make([]SWConf, len(a.Confs))
		for i, c := range a.Confs {
			cp.Confs[i] = copySWConf(c)
		}
	}
	return cp
}

// copySWConf deep-copies one SW conf.
func copySWConf(c SWConf) SWConf {
	if c.Deployments == nil {
		return c
	}
	deps := make([]Deployment, len(c.Deployments))
	for i, d := range c.Deployments {
		if d.Connections != nil {
			conns := make([]PortConnection, len(d.Connections))
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
func (s *Store) App(name core.AppName) (App, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	a, ok := s.apps[name]
	if !ok {
		return App{}, false
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

// RecordInstallation adds an InstalledAPP row.
func (s *Store) RecordInstallation(ia *InstalledApp) {
	sh := s.shard(ia.Vehicle)
	sh.mu.Lock()
	sh.rows[ia.Vehicle] = append(sh.rows[ia.Vehicle], ia)
	if s.jn != nil {
		s.jn.Append(journal.InstallRecordedRec(snapshotRow(ia)))
	}
	sh.mu.Unlock()
}

// TryRecordInstallation adds an InstalledAPP row unless the app already
// has one on the vehicle — the atomic check-and-record that keeps
// concurrent duplicate deploys from double-installing. With a journal
// attached the row is durable before the method returns, so the push
// pipeline never sends packages whose installation a crash would
// forget.
func (s *Store) TryRecordInstallation(ia *InstalledApp) error {
	t, err := s.tryRecordInstallation(ia)
	if err != nil {
		return err
	}
	if err := waitDurable(t); err != nil {
		s.rollbackInstallation(ia.Vehicle, ia.App)
		return err
	}
	return nil
}

// tryRecordInstallation is the enqueue half of TryRecordInstallation:
// the row is inserted and its record enqueued, but the durability wait
// is the caller's. The deploy path waits after releasing its per-
// vehicle stripe, so concurrent deploys overlap their group commits
// instead of serializing stripe-by-stripe.
func (s *Store) tryRecordInstallation(ia *InstalledApp) (journal.Ticket, error) {
	sh := s.shard(ia.Vehicle)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	for _, r := range sh.rows[ia.Vehicle] {
		if r.App == ia.App {
			return journal.Ticket{}, api.Errorf(api.CodeAlreadyExists, "server: app %s already installed on %s", ia.App, ia.Vehicle)
		}
	}
	sh.rows[ia.Vehicle] = append(sh.rows[ia.Vehicle], ia)
	if s.jn == nil {
		return journal.Ticket{}, nil
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

// removeRowLocked deletes the row of app on vehicle; called with the
// shard lock held. It reports whether a row was removed.
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
	if removeRowLocked(sh, vehicle, app) && s.jn != nil {
		s.jn.Append(journal.InstallRemovedRec(vehicle, app))
	}
	sh.mu.Unlock()
}

// snapshotRow copies a row so readers never share memory with the
// ack path's mutations; called with the row's shard lock held.
func snapshotRow(r *InstalledApp) InstalledApp {
	cp := *r
	cp.Plugins = append([]InstalledPlugin(nil), r.Plugins...)
	return cp
}

// InstalledApps returns copies of the InstalledAPP rows of a vehicle.
func (s *Store) InstalledApps(vehicle core.VehicleID) []InstalledApp {
	sh := s.shard(vehicle)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	out := make([]InstalledApp, 0, len(sh.rows[vehicle]))
	for _, r := range sh.rows[vehicle] {
		out = append(out, snapshotRow(r))
	}
	return out
}

// InstalledApp returns a copy of one row.
func (s *Store) InstalledApp(vehicle core.VehicleID, app core.AppName) (InstalledApp, bool) {
	sh := s.shard(vehicle)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	for _, r := range sh.rows[vehicle] {
		if r.App == app {
			return snapshotRow(r), true
		}
	}
	return InstalledApp{}, false
}

// MarkInstallAcked records the vehicle's acknowledgement of one
// plug-in installation.
func (s *Store) MarkInstallAcked(vehicle core.VehicleID, app core.AppName, plugin core.PluginName) {
	sh := s.shard(vehicle)
	sh.mu.Lock()
	if markAckedLocked(sh, vehicle, app, plugin) && s.jn != nil {
		s.jn.Append(journal.InstallAckedRec(vehicle, app, plugin))
	}
	sh.mu.Unlock()
}

// markAckedLocked flips the acked flag of one plug-in; called with the
// shard lock held. It reports whether a row matched.
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
	if dropPluginLocked(sh, vehicle, app, plugin) && s.jn != nil {
		s.jn.Append(journal.PluginDroppedRec(vehicle, app, plugin))
	}
	sh.mu.Unlock()
}

// dropPluginLocked removes one plug-in from its row; called with the
// shard lock held. It reports whether the row changed.
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
			r.Plugins[i] = InstalledPlugin{}
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
func (s *Store) InstalledPlugins(vehicle core.VehicleID) []InstalledPlugin {
	sh := s.shard(vehicle)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	var out []InstalledPlugin
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
	mark := func(r *InstalledApp) {
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
func (s *Store) ReservedUpgradeRows(vehicle core.VehicleID) []InstalledApp {
	sh := s.shard(vehicle)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	var out []InstalledApp
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
func (s *Store) ReserveUpgrade(row *InstalledApp) {
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
func (s *Store) CommitUpgrade(fromApp core.AppName, row *InstalledApp) error {
	sh := s.shard(row.Vehicle)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	delete(sh.reserved, upgradeKey(row.Vehicle, row.App))
	var old *InstalledApp
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
	removeRowLocked(sh, row.Vehicle, fromApp)
	sh.rows[row.Vehicle] = append(sh.rows[row.Vehicle], row)
	if s.jn != nil {
		// Ack-path policy: enqueue without waiting — the vehicle already
		// committed the swap and holds the ground truth; the record rides
		// the next group commit. A crash inside that window under-reports
		// (recovery shows the old version while the vehicle runs the
		// new), the same conservative-loss shape as lost ack records.
		s.jn.Append(journal.UpgradeCommittedRec(row.Vehicle, fromApp, snapshotRow(row)))
	}
	return nil
}
