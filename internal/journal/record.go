// Package journal is the durable-state subsystem of the trusted
// server: an append-only write-ahead log of typed, versioned mutation
// records plus periodic snapshot compaction. The server is the
// authoritative record of which plug-in components run on which
// vehicle, so its state is persisted the way Hufflen frames a
// reconfigurable system — as the result of an ordered sequence of
// reconfigurations: every store mutation appends one record, and
// recovery replays the path (snapshot + log tail) instead of trusting
// ambient in-memory state.
//
// The log is length-prefixed and checksummed per record, commits with
// one fsync amortized over all concurrently appending writers (group
// commit), and compacts by writing a full state image side-by-side and
// truncating the old segment. Recovery tolerates a torn final record —
// the expected shape of a crash mid-append. Multi-step protocols ride
// the log as transactions: a live upgrade writes its intent
// (upgrade_started) ahead of any vehicle traffic and settles with
// exactly one of upgrade_committed (the row swap) or
// upgrade_rolled_back, so a crash at any point recovers to exactly one
// of the two app versions.
package journal

import (
	"time"

	"dynautosar/internal/api"
	"dynautosar/internal/core"
)

// recordVersion is the wire version stamped on every record and state
// image; readers reject higher versions.
const recordVersion = 1

// Type discriminates the mutation a record carries.
type Type string

const (
	// TypeUserAdded: a user account was created.
	TypeUserAdded Type = "user_added"
	// TypeVehicleBound: a vehicle conf was registered and bound.
	TypeVehicleBound Type = "vehicle_bound"
	// TypeAppUploaded: an application (binaries + SW confs) was stored.
	TypeAppUploaded Type = "app_uploaded"
	// TypeInstallRecorded: an InstalledAPP row was added.
	TypeInstallRecorded Type = "install_recorded"
	// TypeInstallAcked: the vehicle acknowledged one plug-in install.
	TypeInstallAcked Type = "install_acked"
	// TypeInstallRemoved: the row of an app on a vehicle was deleted.
	TypeInstallRemoved Type = "install_removed"
	// TypePluginDropped: one acknowledged uninstallation left its row.
	TypePluginDropped Type = "plugin_dropped"
	// TypeOpCreated: an async operation was registered.
	TypeOpCreated Type = "op_created"
	// TypeOpSettled: an async operation reached a terminal state.
	TypeOpSettled Type = "op_settled"

	// The live-upgrade transaction records. upgrade_started is written
	// ahead of the first MsgUpgrade push; the InstalledAPP row is not
	// touched until upgrade_committed atomically replaces the old app's
	// row with the new one. A crash between started and a settle record
	// therefore recovers to exactly the old version; a crash after
	// upgrade_committed recovers to exactly the new one — never neither,
	// never a mix.

	// TypeUpgradeStarted: an upgrade was planned and its pushes are
	// about to go on the wire.
	TypeUpgradeStarted Type = "upgrade_started"
	// TypeUpgradeCommitted: every plug-in swap was acknowledged; the
	// record carries the new row that replaced the old app's.
	TypeUpgradeCommitted Type = "upgrade_committed"
	// TypeUpgradeRolledBack: the vehicle rolled back (or the pushes
	// failed) and the old row stands untouched.
	TypeUpgradeRolledBack Type = "upgrade_rolled_back"

	// The progressive-rollout state machine. rollout_started is written
	// (and durable) before the first canary wave launches and fixes the
	// resolved fleet in bucket order plus the wave boundaries;
	// wave_promoted marks one health-gated wave boundary passed;
	// rollout_rolled_back records the decision to downgrade the fleet
	// before any downgrade push goes out; rollout_done closes the
	// machine with its terminal state. A crash between records recovers
	// to the last durable wave boundary: an open rollout resumes
	// forward only if no vehicle beyond that boundary committed the new
	// version (a clean boundary), and rolls the fleet back otherwise —
	// the in-flight wave's health window died with the process.

	// TypeRolloutStarted: a rollout was planned; the record carries the
	// bucketed fleet and the cumulative wave boundaries.
	TypeRolloutStarted Type = "rollout_started"
	// TypeWavePromoted: one wave completed inside its health window.
	TypeWavePromoted Type = "wave_promoted"
	// TypeRolloutRolledBack: the health gate tripped or the operator
	// aborted; the fleet is about to be downgraded in reverse wave
	// order.
	TypeRolloutRolledBack Type = "rollout_rolled_back"
	// TypeRolloutDone: the rollout reached a terminal state.
	TypeRolloutDone Type = "rollout_done"

	// TypeShardEpoch: a server took leadership of a shard. Written as
	// the first record of every leader incarnation — boot, restart or
	// follower promotion — with a strictly increasing epoch, so a
	// replicated journal carries the shard's complete leadership
	// history and recovery always knows the highest epoch ever granted.
	// Vehicle-connection leases are scoped to the epoch: a promoted
	// leader's pushes travel under the new epoch and a deposed leader's
	// stale pushes can never settle bookkeeping on the successor.
	TypeShardEpoch Type = "shard_epoch"
)

// Record is one journaled mutation: the version, the type, and exactly
// one payload field matching the type. The envelope is JSON on the
// wire (binaries ride base64 in app records), framed and checksummed
// by the log layer.
type Record struct {
	V    int  `json:"v"`
	Type Type `json:"type"`

	User    *UserAdded     `json:"user,omitempty"`
	Vehicle *VehicleBound  `json:"vehicle,omitempty"`
	App     *api.App       `json:"app,omitempty"`
	Install *InstallChange `json:"install,omitempty"`
	Op      *OpChange      `json:"op,omitempty"`
	Upgrade *UpgradeChange `json:"upgrade,omitempty"`
	Rollout *RolloutChange `json:"rollout,omitempty"`
	Epoch   *ShardEpoch    `json:"epoch,omitempty"`
}

// ShardEpoch is the payload of TypeShardEpoch: which shard, which
// leadership epoch, and why it was taken ("boot", "restart",
// "promoted").
type ShardEpoch struct {
	Shard  string `json:"shard"`
	Epoch  uint64 `json:"epoch"`
	Reason string `json:"reason,omitempty"`
}

// ShardEpochRec builds a TypeShardEpoch record.
func ShardEpochRec(shard string, epoch uint64, reason string) Record {
	return Record{V: recordVersion, Type: TypeShardEpoch,
		Epoch: &ShardEpoch{Shard: shard, Epoch: epoch, Reason: reason}}
}

// UserAdded is the payload of TypeUserAdded.
type UserAdded struct {
	ID core.UserID `json:"id"`
}

// VehicleBound is the payload of TypeVehicleBound.
type VehicleBound struct {
	Owner core.UserID      `json:"owner"`
	Conf  core.VehicleConf `json:"conf"`
}

// InstallChange is the payload of the four InstalledAPP-table record
// types. Row is set for install_recorded; Plugin for install_acked and
// plugin_dropped; install_removed needs only Vehicle and App.
type InstallChange struct {
	Vehicle core.VehicleID    `json:"vehicle"`
	App     core.AppName      `json:"app"`
	Plugin  core.PluginName   `json:"plugin,omitempty"`
	Row     *api.InstalledApp `json:"row,omitempty"`
}

// OpChange is the payload of the operation record types: the full
// operation snapshot at creation respectively settlement time. Settled
// snapshots let recovery resurrect recently completed operations with
// their final tallies; operations still open when the server died are
// the ones recovery settles as INTERRUPTED.
type OpChange struct {
	Op api.Operation `json:"op"`
}

// UserAddedRec builds a TypeUserAdded record.
func UserAddedRec(id core.UserID) Record {
	return Record{V: recordVersion, Type: TypeUserAdded, User: &UserAdded{ID: id}}
}

// VehicleBoundRec builds a TypeVehicleBound record.
func VehicleBoundRec(owner core.UserID, conf core.VehicleConf) Record {
	return Record{V: recordVersion, Type: TypeVehicleBound, Vehicle: &VehicleBound{Owner: owner, Conf: conf}}
}

// AppUploadedRec builds a TypeAppUploaded record.
func AppUploadedRec(app api.App) Record {
	return Record{V: recordVersion, Type: TypeAppUploaded, App: &app}
}

// InstallRecordedRec builds a TypeInstallRecorded record.
func InstallRecordedRec(row api.InstalledApp) Record {
	return Record{V: recordVersion, Type: TypeInstallRecorded,
		Install: &InstallChange{Vehicle: row.Vehicle, App: row.App, Row: &row}}
}

// InstallAckedRec builds a TypeInstallAcked record.
func InstallAckedRec(vehicle core.VehicleID, app core.AppName, plugin core.PluginName) Record {
	return Record{V: recordVersion, Type: TypeInstallAcked,
		Install: &InstallChange{Vehicle: vehicle, App: app, Plugin: plugin}}
}

// InstallRemovedRec builds a TypeInstallRemoved record.
func InstallRemovedRec(vehicle core.VehicleID, app core.AppName) Record {
	return Record{V: recordVersion, Type: TypeInstallRemoved,
		Install: &InstallChange{Vehicle: vehicle, App: app}}
}

// PluginDroppedRec builds a TypePluginDropped record.
func PluginDroppedRec(vehicle core.VehicleID, app core.AppName, plugin core.PluginName) Record {
	return Record{V: recordVersion, Type: TypePluginDropped,
		Install: &InstallChange{Vehicle: vehicle, App: app, Plugin: plugin}}
}

// UpgradeChange is the payload of the upgrade record types: the
// vehicle, the two app identities, the replacement row (committed
// only) and the failure reason (rolled back only).
type UpgradeChange struct {
	Vehicle core.VehicleID    `json:"vehicle"`
	FromApp core.AppName      `json:"fromApp"`
	ToApp   core.AppName      `json:"toApp"`
	Row     *api.InstalledApp `json:"row,omitempty"`
	Reason  string            `json:"reason,omitempty"`
}

// UpgradeStartedRec builds a TypeUpgradeStarted record.
func UpgradeStartedRec(vehicle core.VehicleID, fromApp, toApp core.AppName) Record {
	return Record{V: recordVersion, Type: TypeUpgradeStarted,
		Upgrade: &UpgradeChange{Vehicle: vehicle, FromApp: fromApp, ToApp: toApp}}
}

// UpgradeCommittedRec builds a TypeUpgradeCommitted record carrying the
// new row that replaces the old app's.
func UpgradeCommittedRec(vehicle core.VehicleID, fromApp core.AppName, row api.InstalledApp) Record {
	return Record{V: recordVersion, Type: TypeUpgradeCommitted,
		Upgrade: &UpgradeChange{Vehicle: vehicle, FromApp: fromApp, ToApp: row.App, Row: &row}}
}

// UpgradeRolledBackRec builds a TypeUpgradeRolledBack record.
func UpgradeRolledBackRec(vehicle core.VehicleID, fromApp, toApp core.AppName, reason string) Record {
	return Record{V: recordVersion, Type: TypeUpgradeRolledBack,
		Upgrade: &UpgradeChange{Vehicle: vehicle, FromApp: fromApp, ToApp: toApp, Reason: reason}}
}

// RolloutChange is the payload of the rollout record types. Started
// records carry the identity, the bucketed fleet and the cumulative
// wave boundaries; wave_promoted carries the wave index; rolled_back
// the trip reason; done the terminal state.
type RolloutChange struct {
	ID       string                   `json:"id"`
	User     core.UserID              `json:"user,omitempty"`
	FromApp  core.AppName             `json:"fromApp,omitempty"`
	ToApp    core.AppName             `json:"toApp,omitempty"`
	Vehicles []core.VehicleID         `json:"vehicles,omitempty"`
	Bounds   []int                    `json:"bounds,omitempty"`
	Health   *api.RolloutHealthPolicy `json:"health,omitempty"`
	Wave     int                      `json:"wave,omitempty"`
	Reason   string                   `json:"reason,omitempty"`
	Final    string                   `json:"final,omitempty"`
}

// RolloutStartedRec builds a TypeRolloutStarted record fixing the
// bucketed fleet, the cumulative wave boundaries and the health policy
// the gates run under (nil for the default, strictest policy).
func RolloutStartedRec(id string, user core.UserID, fromApp, toApp core.AppName, vehicles []core.VehicleID, bounds []int, health *api.RolloutHealthPolicy) Record {
	var h *api.RolloutHealthPolicy
	if health != nil {
		cp := *health
		h = &cp
	}
	return Record{V: recordVersion, Type: TypeRolloutStarted,
		Rollout: &RolloutChange{ID: id, User: user, FromApp: fromApp, ToApp: toApp,
			Vehicles: append([]core.VehicleID(nil), vehicles...),
			Bounds:   append([]int(nil), bounds...),
			Health:   h}}
}

// WavePromotedRec builds a TypeWavePromoted record.
func WavePromotedRec(id string, wave int) Record {
	return Record{V: recordVersion, Type: TypeWavePromoted,
		Rollout: &RolloutChange{ID: id, Wave: wave}}
}

// RolloutRolledBackRec builds a TypeRolloutRolledBack record.
func RolloutRolledBackRec(id, reason string) Record {
	return Record{V: recordVersion, Type: TypeRolloutRolledBack,
		Rollout: &RolloutChange{ID: id, Reason: reason}}
}

// RolloutDoneRec builds a TypeRolloutDone record; final is the
// terminal state ("succeeded" or "rolled_back").
func RolloutDoneRec(id, final string) Record {
	return Record{V: recordVersion, Type: TypeRolloutDone,
		Rollout: &RolloutChange{ID: id, Final: final}}
}

// OpCreatedRec builds a TypeOpCreated record.
func OpCreatedRec(op api.Operation) Record {
	return Record{V: recordVersion, Type: TypeOpCreated, Op: &OpChange{Op: op}}
}

// OpSettledRec builds a TypeOpSettled record.
func OpSettledRec(op api.Operation) Record {
	return Record{V: recordVersion, Type: TypeOpSettled, Op: &OpChange{Op: op}}
}

// StateImage is the full store image a snapshot persists: everything
// needed to rebuild the server without the log segments the snapshot
// replaces. OpenOps are the operations not yet terminal at snapshot
// time — the set recovery settles as INTERRUPTED if the log tail never
// settles them. OpSeq carries the operation-id counter so ids minted
// after recovery never collide with journaled ones.
type StateImage struct {
	V         int   `json:"v"`
	TakenUnix int64 `json:"takenUnix"`

	Users     []api.User          `json:"users"`
	Vehicles  []api.VehicleRecord `json:"vehicles"`
	Apps      []api.App           `json:"apps"`
	Installed []api.InstalledApp  `json:"installed"`
	OpenOps   []api.Operation     `json:"openOps"`
	// SettledOps are the terminal operations still inside the registry's
	// retention window at snapshot time. They ride the image so a restart
	// — or a follower promoted from the replicated journal — keeps their
	// real outcomes and idempotency-key bindings: a client retrying a key
	// across a failover gets its original operation back instead of
	// creating a duplicate.
	SettledOps []api.Operation `json:"settledOps,omitempty"`
	OpSeq      uint64          `json:"opSeq"`
	// Rollouts are the progressive rollouts not yet terminal at
	// snapshot time, with the log-implied progress folded in. (Images of
	// older servers also carry "rolloutSeq", the counter of the "ro-" ids
	// they minted; rollouts take operation ids now, so it is ignored.)
	Rollouts []RolloutImage `json:"rollouts,omitempty"`
	// Shard and ShardEpoch carry the owning shard's identity and the
	// highest leadership epoch granted at snapshot time, so a promoted
	// follower recovering from a compacted journal still mints a higher
	// epoch than every predecessor.
	Shard      string `json:"shard,omitempty"`
	ShardEpoch uint64 `json:"shardEpoch,omitempty"`
}

// RolloutImage is one open rollout inside a state image: the started
// record's plan plus the promoted-wave watermark and the rolled-back
// flag the log tail would otherwise replay.
type RolloutImage struct {
	ID       string                   `json:"id"`
	User     core.UserID              `json:"user"`
	FromApp  core.AppName             `json:"fromApp"`
	ToApp    core.AppName             `json:"toApp"`
	Vehicles []core.VehicleID         `json:"vehicles"`
	Bounds   []int                    `json:"bounds"`
	Health   *api.RolloutHealthPolicy `json:"health,omitempty"`
	// Promoted counts waves durably promoted (0 = none).
	Promoted   int    `json:"promoted"`
	RolledBack bool   `json:"rolledBack,omitempty"`
	Reason     string `json:"reason,omitempty"`
}

// NewStateImage stamps an empty image with the current version and
// time.
func NewStateImage() *StateImage {
	return &StateImage{V: recordVersion, TakenUnix: time.Now().Unix()}
}
