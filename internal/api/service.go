package api

import (
	"context"

	"dynautosar/internal/core"
)

// Typed requests and responses of the v1 deployment-service API.

// CreateUserRequest registers a user account (user setup, paper
// section 3.2.2).
type CreateUserRequest struct {
	ID core.UserID `json:"id"`
}

// BindVehicleRequest registers a vehicle configuration and binds it to
// its owner.
type BindVehicleRequest struct {
	Owner core.UserID      `json:"owner"`
	Conf  core.VehicleConf `json:"conf"`
}

// DeployRequest asks for app to be deployed on vehicle.
type DeployRequest struct {
	User    core.UserID    `json:"user"`
	Vehicle core.VehicleID `json:"vehicle"`
	App     core.AppName   `json:"app"`
	// IdempotencyKey, when non-empty, makes the create idempotent: a
	// retry carrying the same key returns the originally created
	// operation instead of creating a second one. Retrying transports
	// (see NewRetryClient) fill it automatically.
	IdempotencyKey string `json:"idempotencyKey,omitempty"`
}

// UninstallRequest asks for app to be removed from vehicle.
type UninstallRequest struct {
	User    core.UserID    `json:"user"`
	Vehicle core.VehicleID `json:"vehicle"`
	App     core.AppName   `json:"app"`
	// IdempotencyKey, when non-empty, makes the create idempotent: a
	// retry carrying the same key returns the originally created
	// operation instead of creating a second one. Retrying transports
	// (see NewRetryClient) fill it automatically.
	IdempotencyKey string `json:"idempotencyKey,omitempty"`
}

// FleetSelector names a fleet by attributes instead of ids: the
// vehicles of an owner and/or a model. An empty Owner defaults to the
// requesting user; naming another user's fleet is refused.
type FleetSelector struct {
	Owner core.UserID `json:"owner,omitempty"`
	Model string      `json:"model,omitempty"`
}

// BatchDeployRequest asks for app to be deployed across a fleet, named
// either by an explicit vehicle list or by a selector (exactly one of
// the two). The call returns one parent Operation with a child
// operation per vehicle and partial-failure semantics: vehicles fail
// individually without aborting the rest of the batch.
type BatchDeployRequest struct {
	User     core.UserID      `json:"user"`
	Vehicles []core.VehicleID `json:"vehicles,omitempty"`
	Selector *FleetSelector   `json:"selector,omitempty"`
	App      core.AppName     `json:"app"`
	// IdempotencyKey, when non-empty, makes the create idempotent: a
	// retry carrying the same key returns the originally created
	// operation instead of creating a second one. Retrying transports
	// (see NewRetryClient) fill it automatically.
	IdempotencyKey string `json:"idempotencyKey,omitempty"`
}

// BatchUninstallRequest asks for app to be removed across a fleet, with
// the same shape and semantics as BatchDeployRequest.
type BatchUninstallRequest struct {
	User     core.UserID      `json:"user"`
	Vehicles []core.VehicleID `json:"vehicles,omitempty"`
	Selector *FleetSelector   `json:"selector,omitempty"`
	App      core.AppName     `json:"app"`
	// IdempotencyKey, when non-empty, makes the create idempotent: a
	// retry carrying the same key returns the originally created
	// operation instead of creating a second one. Retrying transports
	// (see NewRetryClient) fill it automatically.
	IdempotencyKey string `json:"idempotencyKey,omitempty"`
}

// UpgradeRequest asks for the installed app From to be live-upgraded in
// place to the stored app To on a running vehicle: the vehicle quiesces
// each plug-in (buffering its traffic), transfers exported state into
// the new version, health-probes it and rolls back to From on failure.
type UpgradeRequest struct {
	User    core.UserID    `json:"user"`
	Vehicle core.VehicleID `json:"vehicle"`
	From    core.AppName   `json:"from"`
	To      core.AppName   `json:"to"`
	// IdempotencyKey, when non-empty, makes the create idempotent: a
	// retry carrying the same key returns the originally created
	// operation instead of creating a second one. Retrying transports
	// (see NewRetryClient) fill it automatically.
	IdempotencyKey string `json:"idempotencyKey,omitempty"`
}

// BatchUpgradeRequest asks for a live upgrade across a fleet, with the
// same fleet-naming shape and partial-failure semantics as
// BatchDeployRequest.
type BatchUpgradeRequest struct {
	User     core.UserID      `json:"user"`
	Vehicles []core.VehicleID `json:"vehicles,omitempty"`
	Selector *FleetSelector   `json:"selector,omitempty"`
	From     core.AppName     `json:"from"`
	To       core.AppName     `json:"to"`
	// IdempotencyKey, when non-empty, makes the create idempotent: a
	// retry carrying the same key returns the originally created
	// operation instead of creating a second one. Retrying transports
	// (see NewRetryClient) fill it automatically.
	IdempotencyKey string `json:"idempotencyKey,omitempty"`
}

// RolloutWave selects how much of the fleet is cumulatively covered
// after one wave of a progressive rollout: an absolute vehicle count
// (Count > 0 wins) or a fraction of the resolved fleet in (0, 1].
// Resolved boundaries must be strictly increasing and the last wave
// must cover the whole fleet.
type RolloutWave struct {
	Count    int     `json:"count,omitempty"`
	Fraction float64 `json:"fraction,omitempty"`
}

// RolloutHealthPolicy is the per-wave promotion gate of a progressive
// rollout. The zero value is the strictest gate: any failed child
// upgrade (nack, disconnect, or vehicle-side probe rollback) trips it.
type RolloutHealthPolicy struct {
	// MaxFailureRate is the tolerated fraction of failed child upgrades
	// per wave, in [0, 1).
	MaxFailureRate float64 `json:"maxFailureRate,omitempty"`
	// MaxProbeFailures is the tolerated absolute number of vehicle-side
	// probe rollbacks (children failing with the "rollback" code) per
	// wave; probe failures are the strongest unhealthy signal, so they
	// gate separately from the overall rate.
	MaxProbeFailures int `json:"maxProbeFailures,omitempty"`
	// MaxAckP99Millis bounds the p99 settle latency of the wave's child
	// upgrades in milliseconds; 0 disables the latency gate.
	MaxAckP99Millis float64 `json:"maxAckP99Millis,omitempty"`
}

// RolloutRequest starts a health-gated progressive rollout: the fleet
// (explicit vehicle list or selector, exactly one) is bucketed
// deterministically by hashed vehicle id, split into canary waves, and
// upgraded From -> To one wave at a time; each wave must pass the
// health policy before the next launches, and a tripped gate (or an
// operator abort) downgrades every already-upgraded vehicle in reverse
// wave order. An empty Waves plan defaults to 1 vehicle -> 10% -> all.
type RolloutRequest struct {
	User     core.UserID          `json:"user"`
	Vehicles []core.VehicleID     `json:"vehicles,omitempty"`
	Selector *FleetSelector       `json:"selector,omitempty"`
	From     core.AppName         `json:"from"`
	To       core.AppName         `json:"to"`
	Waves    []RolloutWave        `json:"waves,omitempty"`
	Health   *RolloutHealthPolicy `json:"health,omitempty"`
}

// RolloutWaveStatus reports one wave's execution. BatchOp is the batch
// upgrade parent the wave ran as (its children carry per-vehicle
// detail); RollbackOp the batch that downgraded the wave, when the
// rollout rolled back.
type RolloutWaveStatus struct {
	// Targets is the number of vehicles in this wave (bucket order).
	Targets int `json:"targets"`
	// Started reports that the wave's batch was launched.
	Started bool `json:"started,omitempty"`
	// Promoted reports that the wave passed its health gate.
	Promoted   bool   `json:"promoted,omitempty"`
	BatchOp    string `json:"batchOp,omitempty"`
	RollbackOp string `json:"rollbackOp,omitempty"`
	// Succeeded/Failed count the wave's child upgrades by outcome;
	// ProbeFailures counts children that failed with the "rollback"
	// code (vehicle-side health-probe rollbacks), a subset of Failed.
	Succeeded     int `json:"succeeded,omitempty"`
	Failed        int `json:"failed,omitempty"`
	ProbeFailures int `json:"probeFailures,omitempty"`
	// AckP99Millis is the p99 settle latency of the wave's children.
	AckP99Millis float64 `json:"ackP99Millis,omitempty"`
}

// RolloutProgress is the wave progress a rollout operation carries
// (Operation.Rollout). Where the rollout stands is the operation's
// State and this one bit: running forward (running, !RollingBack),
// rolling back (running, RollingBack), succeeded, or rolled back
// (failed with rollout_unhealthy or rollout_aborted).
type RolloutProgress struct {
	Waves []RolloutWaveStatus `json:"waves"`
	// CurrentWave indexes the wave executing (or rolling back); equal
	// to len(Waves) when every wave promoted.
	CurrentWave int `json:"currentWave"`
	// GateReason is why the rollout left the forward path: the tripped
	// health gate's description, or the operator abort.
	GateReason string `json:"gateReason,omitempty"`
	// RollingBack reports that the rollout left the forward path and
	// downgrades (or downgraded) the fleet.
	RollingBack bool `json:"rollingBack,omitempty"`
}

// VerifyRequest asks the static plan verifier to dry-run an operation:
// plan it exactly as Deploy/Uninstall/Upgrade/Restore would, walk every
// intermediate configuration of the reconfiguration path, and report —
// without pushing anything to the vehicle or reserving any state. Kind
// selects the operation; App names the app to deploy or uninstall (the
// installed app for upgrades), To the upgrade target, ECU the replaced
// ECU of a restore.
type VerifyRequest struct {
	User    core.UserID    `json:"user"`
	Vehicle core.VehicleID `json:"vehicle"`
	Kind    OperationKind  `json:"kind"`
	App     core.AppName   `json:"app"`
	To      core.AppName   `json:"to,omitempty"`
	ECU     core.ECUID     `json:"ecu,omitempty"`
}

// VerifyReport is the verdict of a verification dry-run. OK reports
// that every intermediate configuration satisfies the invariant
// catalogue; Steps lists the plan's step path. On rejection Error
// carries the stable code (usually "unsafe_plan") and the minimal
// counterexample path in its message.
type VerifyReport struct {
	OK    bool     `json:"ok"`
	Steps []string `json:"steps,omitempty"`
	Error *Error   `json:"error,omitempty"`
}

// RestoreRequest asks for the plug-ins of a replaced ECU to be
// re-installed with their recorded port ids.
type RestoreRequest struct {
	User    core.UserID    `json:"user"`
	Vehicle core.VehicleID `json:"vehicle"`
	ECU     core.ECUID     `json:"ecu"`
	// IdempotencyKey, when non-empty, makes the create idempotent: a
	// retry carrying the same key returns the originally created
	// operation instead of creating a second one. Retrying transports
	// (see NewRetryClient) fill it automatically.
	IdempotencyKey string `json:"idempotencyKey,omitempty"`
}

// AppRef names a stored application.
type AppRef struct {
	Name core.AppName `json:"name"`
}

// VehicleDetail is a vehicle record together with its InstalledAPP
// rows.
type VehicleDetail struct {
	VehicleRecord
	Installed []InstalledApp `json:"installed"`
}

// AppList is one page of application names.
type AppList struct {
	Apps          []core.AppName `json:"apps"`
	NextPageToken string         `json:"nextPageToken,omitempty"`
}

// VehicleList is one page of vehicle records.
type VehicleList struct {
	Vehicles      []VehicleRecord `json:"vehicles"`
	NextPageToken string          `json:"nextPageToken,omitempty"`
}

// OperationList is one page of operations, oldest first.
type OperationList struct {
	Operations    []Operation `json:"operations"`
	NextPageToken string      `json:"nextPageToken,omitempty"`
}

// Health is the GET /v1/healthz body: the readiness signal orchestrators
// gate traffic on, plus the durable-state recovery counters. A server
// answers only after recovery completed, so a responding endpoint
// reports "ok" — unless the journal has failed (disk gone, sync
// errors), in which case Status is "degraded" and JournalError carries
// the reason: the server still serves reads but no longer persists.
type Health struct {
	Status string `json:"status"`
	// JournalError is the journal's sticky failure, "" while healthy.
	JournalError string `json:"journalError,omitempty"`
	// Journal reports whether durable state is enabled (-data-dir set).
	Journal bool `json:"journal"`
	// RecoveredRecords counts journal records replayed at start-up.
	RecoveredRecords int `json:"recoveredRecords"`
	// InterruptedOperations counts operations that were in flight at
	// crash time and were settled as failed/interrupted during recovery.
	InterruptedOperations int `json:"interruptedOperations"`
	// SnapshotAge is the age of the newest snapshot in seconds, -1 when
	// no snapshot exists (journal disabled or none taken yet).
	SnapshotAge float64 `json:"snapshotAge"`
	// TornTail reports that recovery dropped a truncated final record —
	// the expected shape of a crash mid-append, kept visible for
	// diagnostics.
	TornTail bool `json:"tornTail,omitempty"`

	// Federation fields (empty on an unsharded server). Shard is the
	// shard this server belongs to, Role is "leader" or "follower",
	// ShardEpoch the leadership epoch the current leader serves under.
	Shard      string `json:"shard,omitempty"`
	Role       string `json:"role,omitempty"`
	ShardEpoch uint64 `json:"shardEpoch,omitempty"`
	// Replication is the leader's per-follower shipping status, nil on
	// followers and unsharded servers.
	Replication []FollowerHealth `json:"replication,omitempty"`
}

// FollowerHealth is one follower's replication position as the leader
// sees it: how far shipping got, how far the follower confirmed, the
// byte lag between the leader's durable watermark and that
// confirmation, and how many group commits were acknowledged without
// waiting for it (0 on a follower that was in sync throughout).
type FollowerHealth struct {
	Name              string `json:"name"`
	LastShippedGen    uint64 `json:"lastShippedGen"`
	LastShippedOffset int64  `json:"lastShippedOffset"`
	AckedGen          uint64 `json:"ackedGen"`
	AckedOffset       int64  `json:"ackedOffset"`
	LagBytes          int64  `json:"lagBytes"`
	Resyncs           uint64 `json:"resyncs"`
	LastError         string `json:"lastError,omitempty"`
	AsyncCommits      uint64 `json:"asyncCommits"`
}

// Statz is the GET /v1/statz body: cheap monotonic counters for
// monitoring and load generators (the fleet simulator's measurement
// layer reads these instead of poking server internals). All counters
// are "since process start" — they reset on restart, unlike the
// journal-backed state behind /v1/healthz.
type Statz struct {
	// OpsCreated counts async operations registered (batch children
	// included); OpsOpen is how many are currently non-terminal.
	OpsCreated uint64 `json:"opsCreated"`
	OpsOpen    int    `json:"opsOpen"`
	// OpsSettled counts terminal operations by outcome: "ok" for
	// succeeded, the stable error code for failures that carry one,
	// "failed" for nack-only failures.
	OpsSettled map[string]uint64 `json:"opsSettled,omitempty"`
	// PendingAcks is the current depth of the push queue: frames on
	// vehicle links whose acknowledgement has not arrived.
	PendingAcks int `json:"pendingAcks"`
	// VehiclesConnected and PushesSent describe the pusher: live
	// identified links, and downstream frames written since start.
	VehiclesConnected int    `json:"vehiclesConnected"`
	PushesSent        uint64 `json:"pushesSent"`
	// Journal counters (zero when running memory-only): records
	// flushed, group commits (write+fsync pairs, the "syncs"), records
	// since the last snapshot, the snapshot generation, and the byte
	// sizes compaction compares — the newest state image and the
	// committed part of the current segment, which is what a restart
	// now would replay; the journal compacts once the segment has
	// outgrown the image by a fixed factor.
	JournalRecords       uint64 `json:"journalRecords"`
	JournalCommits       uint64 `json:"journalCommits"`
	JournalSinceSnapshot int    `json:"journalSinceSnapshot"`
	JournalGen           uint64 `json:"journalGen"`
	JournalImageBytes    int64  `json:"journalImageBytes"`
	JournalSegmentBytes  int64  `json:"journalSegmentBytes"`
	// Federation counters (zero/empty on an unsharded server): the
	// shard identity and role, the leadership epoch, the worst
	// per-follower replication lag in bytes, the newest segment
	// generation handed to any follower, and the group commits that
	// settled without some follower's confirmation (summed over
	// followers; 0 while every follower stayed in sync).
	Shard              string `json:"shard,omitempty"`
	Role               string `json:"role,omitempty"`
	ShardEpoch         uint64 `json:"shardEpoch,omitempty"`
	ReplLagBytes       int64  `json:"replLagBytes,omitempty"`
	LastSegmentShipped uint64 `json:"lastSegmentShipped,omitempty"`
	ReplAsyncCommits   uint64 `json:"replAsyncCommits,omitempty"`
}

// Add folds one process's counters into s, the aggregation rule of a
// federated /v1/statz: counters sum, ReplLagBytes keeps the worst
// shard's lag, OpsSettled merges by outcome. The per-process identity
// fields (Shard, Role, ShardEpoch, JournalGen, LastSegmentShipped) are
// not aggregated; the caller sets the aggregate's own.
func (s *Statz) Add(o Statz) {
	s.OpsCreated += o.OpsCreated
	s.OpsOpen += o.OpsOpen
	s.PendingAcks += o.PendingAcks
	s.VehiclesConnected += o.VehiclesConnected
	s.PushesSent += o.PushesSent
	s.JournalRecords += o.JournalRecords
	s.JournalCommits += o.JournalCommits
	s.JournalSinceSnapshot += o.JournalSinceSnapshot
	s.JournalImageBytes += o.JournalImageBytes
	s.JournalSegmentBytes += o.JournalSegmentBytes
	for code, n := range o.OpsSettled {
		if s.OpsSettled == nil {
			s.OpsSettled = make(map[string]uint64)
		}
		s.OpsSettled[code] += n
	}
	s.ReplLagBytes = max(s.ReplLagBytes, o.ReplLagBytes)
	s.ReplAsyncCommits += o.ReplAsyncCommits
}

// DeploymentService is the transport-agnostic core of the trusted
// server's public surface: every operation group of paper section 3.2.2
// (user setup, upload, (re)deployment) plus the async operations
// resource. The server core implements it; the /v1 HTTP layer and the
// typed client are generated over it, so in-process and remote callers
// share one contract.
//
// Deploy, Uninstall and Restore are asynchronous: they validate cheap
// preconditions, return an Operation immediately and complete it as
// vehicle acknowledgements arrive. Errors carry stable codes (*Error).
type DeploymentService interface {
	// CreateUser registers an account.
	CreateUser(ctx context.Context, req CreateUserRequest) (User, error)
	// GetUser returns an account and its bound vehicles.
	GetUser(ctx context.Context, id core.UserID) (User, error)

	// BindVehicle registers a vehicle conf under its owner.
	BindVehicle(ctx context.Context, req BindVehicleRequest) (VehicleRecord, error)
	// GetVehicle returns a vehicle with its installed apps.
	GetVehicle(ctx context.Context, id core.VehicleID) (VehicleDetail, error)
	// ListVehicles pages through all vehicle records, ordered by id.
	ListVehicles(ctx context.Context, page Page) (VehicleList, error)

	// UploadApp stores a validated application.
	UploadApp(ctx context.Context, app App) (AppRef, error)
	// GetApp returns a stored application.
	GetApp(ctx context.Context, name core.AppName) (App, error)
	// ListApps pages through stored application names, sorted.
	ListApps(ctx context.Context, page Page) (AppList, error)

	// Deploy starts an async deployment and returns its operation.
	Deploy(ctx context.Context, req DeployRequest) (Operation, error)
	// Uninstall starts an async uninstallation.
	Uninstall(ctx context.Context, req UninstallRequest) (Operation, error)
	// Upgrade starts an async live in-place upgrade; a vehicle-side
	// rollback settles the operation failed with the stable "rollback"
	// error code.
	Upgrade(ctx context.Context, req UpgradeRequest) (Operation, error)
	// Restore starts an async restore of a replaced ECU.
	Restore(ctx context.Context, req RestoreRequest) (Operation, error)

	// Verify dry-runs an operation through the static plan verifier and
	// returns the verdict; nothing is pushed or reserved. The report is
	// returned with a nil error even when the plan is rejected — the
	// rejection travels inside the report — so callers can distinguish
	// "unsafe plan" from "request failed".
	Verify(ctx context.Context, req VerifyRequest) (VerifyReport, error)

	// BatchDeploy starts an async fleet-wide deployment and returns its
	// parent operation; per-vehicle progress rides on child operations.
	BatchDeploy(ctx context.Context, req BatchDeployRequest) (Operation, error)
	// BatchUninstall starts an async fleet-wide uninstallation.
	BatchUninstall(ctx context.Context, req BatchUninstallRequest) (Operation, error)
	// BatchUpgrade starts an async fleet-wide live upgrade.
	BatchUpgrade(ctx context.Context, req BatchUpgradeRequest) (Operation, error)

	// StartRollout starts a health-gated progressive rollout and
	// returns its operation; waves execute asynchronously.
	StartRollout(ctx context.Context, req RolloutRequest) (Operation, error)
	// AbortRollout requests a fleet rollback of a running rollout; a
	// terminal rollout is refused with "failed_precondition".
	AbortRollout(ctx context.Context, id string) (Operation, error)

	// Status reports per-app ack progress on a vehicle.
	Status(ctx context.Context, vehicle core.VehicleID, app core.AppName) (OpStatus, error)
	// Health reports readiness and the durable-state recovery counters.
	Health(ctx context.Context) (Health, error)
	// Statz reports the monitoring counters (operations, pushes,
	// journal) since process start.
	Statz(ctx context.Context) (Statz, error)
	// GetOperation returns one async operation by id.
	GetOperation(ctx context.Context, id string) (Operation, error)
	// ListOperations pages through operations, oldest first.
	ListOperations(ctx context.Context, page Page) (OperationList, error)
}
