// Package server implements the trusted server of the dynamic component
// model (paper section 3.2): the central point of intelligence that
// stores users, vehicles and applications, verifies compatibility,
// resolves dependencies, generates the PIC/PLC/ECC contexts and pushes
// installation packages to the vehicles through the Pusher, tracking
// their acknowledgements.
//
// The server's public surface is the versioned deployment-service API
// of internal/api: the Service adapter implements api.DeploymentService
// over this core, and Handler mounts the /v1 HTTP layer.
package server

import "dynautosar/internal/api"

// The data model types live in internal/api — the canonical wire types
// of the deployment service — and are re-exported here so the server
// core and its existing callers keep their natural names.
type (
	// User is one account on the server.
	User = api.User
	// VehicleRecord is the server's knowledge of one vehicle.
	VehicleRecord = api.VehicleRecord
	// App is one application in the APP database.
	App = api.App
	// SWConf distributes an APP's plug-ins over one vehicle model.
	SWConf = api.SWConf
	// Deployment places one plug-in and declares its port connections.
	Deployment = api.Deployment
	// PortConnection wires one developer-named plug-in port.
	PortConnection = api.PortConnection
	// ExternalSpec names an off-board resource and its message id.
	ExternalSpec = api.ExternalSpec
	// InstalledPlugin records where one installed plug-in lives.
	InstalledPlugin = api.InstalledPlugin
	// InstalledApp is one row of the InstalledAPP table.
	InstalledApp = api.InstalledApp
	// OpStatus reports the progress of the most recent operation.
	OpStatus = api.OpStatus
)
