// Package api defines the versioned, transport-agnostic surface of the
// trusted server's deployment service (paper section 3.2.2): the data
// model shared by every transport, typed request/response DTOs, a
// structured error model with stable codes, the DeploymentService
// interface that the server core implements, a /v1 HTTP handler
// generated over that interface, and a typed client usable both
// in-process and over HTTP. Deployment mutations — deploy, uninstall,
// live upgrade, restore, and their fleet-scale batch forms — are
// asynchronous: each returns an Operation that settles as the vehicle
// acknowledges, with failures carrying stable codes (a vehicle-side
// upgrade rollback surfaces as "rollback").
package api

import (
	"fmt"

	"dynautosar/internal/core"
	"dynautosar/internal/plugin"
)

// The data model of paper Figure 2: User and Vehicle on the user side,
// APP with its binaries and SW confs on the developer side, the
// InstalledAPP table tying them together. These are the canonical wire
// types; internal/server re-exports them as aliases.

// User is one account on the server.
type User struct {
	ID core.UserID `json:"id"`
	// Vehicles bound to this user.
	Vehicles []core.VehicleID `json:"vehicles"`
}

// VehicleRecord is the server's knowledge of one vehicle.
type VehicleRecord struct {
	ID core.VehicleID `json:"id"`
	// Owner is the bound user.
	Owner core.UserID `json:"owner"`
	// Conf is the uploaded HW conf + SystemSW conf.
	Conf core.VehicleConf `json:"conf"`
}

// App is one application in the APP database: binaries plus per-model
// SW confs.
type App struct {
	Name     core.AppName    `json:"name"`
	Binaries []plugin.Binary `json:"binaries"`
	Confs    []SWConf        `json:"confs"`
}

// Binary returns the named plug-in binary of the app.
func (a App) Binary(name core.PluginName) (plugin.Binary, bool) {
	for _, b := range a.Binaries {
		if b.Manifest.Name == name {
			return b, true
		}
	}
	return plugin.Binary{}, false
}

// ConfFor returns the SW conf matching a vehicle model.
func (a App) ConfFor(model string) (SWConf, bool) {
	for _, c := range a.Confs {
		if c.Model == model {
			return c, true
		}
	}
	return SWConf{}, false
}

// SWConf describes, for one vehicle model, how an APP's plug-ins are
// distributed over the vehicle and how their ports are connected (paper
// section 3.2.1: "each APP comes with one or several configurations,
// which describe for various vehicle models how the plug-ins should be
// distributed in the vehicle and how the different plug-in ports should
// be connected").
type SWConf struct {
	// Model selects the vehicle models this configuration fits.
	Model string `json:"model"`
	// Deployments place each plug-in of the APP on a plug-in SW-C.
	Deployments []Deployment `json:"deployments"`
}

// Deployment places one plug-in and declares its port connections.
type Deployment struct {
	Plugin core.PluginName `json:"plugin"`
	ECU    core.ECUID      `json:"ecu"`
	SWC    core.SWCID      `json:"swc"`
	// Connections wire the plug-in's ports; ports without a connection
	// become PIRTE-direct ("P0-") posts.
	Connections []PortConnection `json:"connections"`
}

// PortConnection wires one developer-named plug-in port. Exactly one of
// the target fields is used:
//
//   - Virtual: a named virtual port on the same SW-C (type I/III), the
//     paper's "connected to the SpeedReq virtual port" case;
//   - RemotePlugin/RemotePort: a port of another plug-in; same SW-C
//     becomes a peer link, another SW-C goes through the type II mux with
//     the recipient id attached;
//   - External: an off-board resource, generating an ECC entry.
type PortConnection struct {
	Port string `json:"port"`

	Virtual string `json:"virtual,omitempty"`

	RemotePlugin core.PluginName `json:"remotePlugin,omitempty"`
	RemotePort   string          `json:"remotePort,omitempty"`

	External *ExternalSpec `json:"external,omitempty"`
}

// ExternalSpec names an off-board resource and the message id used on
// its link.
type ExternalSpec struct {
	Endpoint  string `json:"endpoint"`
	MessageID string `json:"messageId"`
}

// Validate checks structural consistency of the configuration.
func (c SWConf) Validate() error {
	if c.Model == "" {
		return Errorf(CodeInvalidArgument, "api: SW conf without vehicle model")
	}
	if len(c.Deployments) == 0 {
		return Errorf(CodeInvalidArgument, "api: SW conf for %q has no deployments", c.Model)
	}
	seen := make(map[core.PluginName]bool, len(c.Deployments))
	for _, d := range c.Deployments {
		if d.Plugin == "" || d.ECU == "" || d.SWC == "" {
			return Errorf(CodeInvalidArgument, "api: SW conf for %q: incomplete deployment %+v", c.Model, d)
		}
		if seen[d.Plugin] {
			return Errorf(CodeInvalidArgument, "api: SW conf for %q deploys %s twice", c.Model, d.Plugin)
		}
		seen[d.Plugin] = true
		ports := make(map[string]bool, len(d.Connections))
		for _, conn := range d.Connections {
			if conn.Port == "" {
				return Errorf(CodeInvalidArgument, "api: SW conf for %q: connection without port on %s", c.Model, d.Plugin)
			}
			if ports[conn.Port] {
				return Errorf(CodeInvalidArgument, "api: SW conf for %q: port %q of %s connected twice",
					c.Model, conn.Port, d.Plugin)
			}
			ports[conn.Port] = true
			targets := 0
			if conn.Virtual != "" {
				targets++
			}
			if conn.RemotePlugin != "" || conn.RemotePort != "" {
				if conn.RemotePlugin == "" || conn.RemotePort == "" {
					return Errorf(CodeInvalidArgument, "api: SW conf for %q: incomplete remote target on %s.%s",
						c.Model, d.Plugin, conn.Port)
				}
				targets++
			}
			if conn.External != nil {
				if conn.External.Endpoint == "" || conn.External.MessageID == "" {
					return Errorf(CodeInvalidArgument, "api: SW conf for %q: incomplete external target on %s.%s",
						c.Model, d.Plugin, conn.Port)
				}
				targets++
			}
			if targets != 1 {
				return Errorf(CodeInvalidArgument, "api: SW conf for %q: port %s.%s needs exactly one target, has %d",
					c.Model, d.Plugin, conn.Port, targets)
			}
		}
	}
	return nil
}

// Deployment returns the deployment of a plug-in.
func (c SWConf) Deployment(name core.PluginName) (Deployment, bool) {
	for _, d := range c.Deployments {
		if d.Plugin == name {
			return d, true
		}
	}
	return Deployment{}, false
}

// InstalledPlugin records where one plug-in of an installed APP lives
// and which port ids it received.
type InstalledPlugin struct {
	Plugin core.PluginName `json:"plugin"`
	ECU    core.ECUID      `json:"ecu"`
	SWC    core.SWCID      `json:"swc"`
	PIC    core.PIC        `json:"pic"`
	// Acked becomes true when the vehicle acknowledged the installation.
	Acked bool `json:"acked"`
}

// InstalledApp is one row of the InstalledAPP table.
type InstalledApp struct {
	App     core.AppName      `json:"app"`
	Vehicle core.VehicleID    `json:"vehicle"`
	Plugins []InstalledPlugin `json:"plugins"`
}

// Complete reports whether every plug-in has been acknowledged.
func (ia InstalledApp) Complete() bool {
	for _, p := range ia.Plugins {
		if !p.Acked {
			return false
		}
	}
	return true
}

// OpStatus reports the progress of the most recent operation on an app
// (GET /v1/status).
type OpStatus struct {
	App      core.AppName `json:"app"`
	Total    int          `json:"total"`
	Acked    int          `json:"acked"`
	Failures []string     `json:"failures"`
}

// Complete reports whether all operations acknowledged successfully.
func (st OpStatus) Complete() bool { return st.Acked == st.Total && len(st.Failures) == 0 }

// OperationKind names what an async operation does.
type OperationKind string

const (
	OpDeploy    OperationKind = "deploy"
	OpUninstall OperationKind = "uninstall"
	OpRestore   OperationKind = "restore"
	// OpUpgrade is a live in-place upgrade: the installed App is
	// hot-swapped to ToApp on the running vehicle with state carried
	// over, rolling back to App if the new version fails its health
	// probe.
	OpUpgrade OperationKind = "upgrade"
	// OpBatchDeploy/OpBatchUninstall/OpBatchUpgrade are fleet-scale
	// parents: one child operation of the matching singular kind runs
	// per target vehicle.
	OpBatchDeploy    OperationKind = "deploy:batch"
	OpBatchUninstall OperationKind = "uninstall:batch"
	OpBatchUpgrade   OperationKind = "upgrade:batch"
	// OpRollout is a progressive rollout (POST /v1/rollout): a fleet
	// upgrade App -> ToApp over Vehicles in bucket order, run as
	// health-gated waves. Its Children are the wave batches, forward and
	// rollback, in launch order; GET /v1/rollouts/{id} is the wave view
	// of the same operation.
	OpRollout OperationKind = "rollout"
)

// OperationState is the lifecycle state of an async operation.
type OperationState string

const (
	// StatePending: accepted, packages not yet pushed.
	StatePending OperationState = "pending"
	// StateRunning: packages pushed, awaiting vehicle acknowledgements.
	StateRunning OperationState = "running"
	// StateSucceeded: every push acknowledged successfully.
	StateSucceeded OperationState = "succeeded"
	// StateFailed: launch failed or at least one push was nacked.
	StateFailed OperationState = "failed"
)

// Operation is the async-operation resource: POST /v1/deploy and
// friends return one immediately, and GET /v1/operations/{id} reports
// its ack/nack progress.
type Operation struct {
	ID      string         `json:"id"`
	Kind    OperationKind  `json:"kind"`
	User    core.UserID    `json:"user"`
	Vehicle core.VehicleID `json:"vehicle"`
	App     core.AppName   `json:"app,omitempty"`
	// ToApp is the target of an upgrade operation; App is the version
	// being replaced.
	ToApp core.AppName   `json:"toApp,omitempty"`
	ECU   core.ECUID     `json:"ecu,omitempty"`
	State OperationState `json:"state"`
	// Total counts pushed packages; Acked counts successful
	// acknowledgements.
	Total int `json:"total"`
	Acked int `json:"acked"`
	// Failures lists nack reasons, one per failed plug-in; on a batch
	// parent each entry is prefixed with the vehicle it belongs to.
	Failures []string `json:"failures,omitempty"`
	// Error is set when the operation failed before or during launch.
	Error *Error `json:"error,omitempty"`
	// Done reports whether the operation reached a terminal state.
	Done bool `json:"done"`
	// IdempotencyKey echoes the key the creating request carried, ""
	// for none. The server registers each key exactly once — journaled
	// with the op_created record, so the claim survives crashes and
	// shard failover — and answers a repeated key with this same
	// operation instead of creating a duplicate.
	IdempotencyKey string `json:"idempotencyKey,omitempty"`

	// Batch fields. A batch parent fans out over Vehicles with one child
	// operation each; a child points back through Parent. The parent's
	// Total/Acked/Failures aggregate over every child, and the
	// vehicle counters are its partial-failure report: the parent
	// succeeds only when every child did.

	// Vehicles is the resolved per-vehicle target list of a batch.
	Vehicles []core.VehicleID `json:"vehicles,omitempty"`
	// Parent is the owning batch operation id ("" for top-level).
	Parent string `json:"parent,omitempty"`
	// Children lists the per-vehicle child operation ids of a batch, in
	// Vehicles order.
	Children []string `json:"children,omitempty"`
	// VehiclesSucceeded counts children that reached succeeded.
	VehiclesSucceeded int `json:"vehiclesSucceeded,omitempty"`
	// VehiclesFailed counts children that reached failed.
	VehiclesFailed int `json:"vehiclesFailed,omitempty"`
}

// Page selects one page of a list endpoint. A zero Page asks for the
// first page with the default size.
type Page struct {
	// Size caps the number of items returned; 0 means the default.
	Size int
	// Token continues a previous listing; it is the NextPageToken of
	// the prior response.
	Token string
}

const (
	defaultPageSize = 50
	maxPageSize     = 500
)

// Paginate slices a key-sorted item list according to a page request;
// key must be strictly increasing over items. It returns the page and
// the token of the next one ("" when exhausted).
func Paginate[T any](items []T, page Page, key func(T) string) ([]T, string) {
	size := page.Size
	if size <= 0 {
		size = defaultPageSize
	}
	if size > maxPageSize {
		size = maxPageSize
	}
	start := 0
	if page.Token != "" {
		for i, it := range items {
			if key(it) > page.Token {
				start = i
				break
			}
			start = i + 1
		}
	}
	end := start + size
	if end >= len(items) {
		return items[start:], ""
	}
	return items[start:end], key(items[end-1])
}

func (p Page) String() string { return fmt.Sprintf("{size=%d token=%q}", p.Size, p.Token) }
