package server

import (
	"context"
	"net/http"

	"dynautosar/internal/api"
	"dynautosar/internal/core"
)

// Service is the in-process adapter implementing api.DeploymentService
// over the server core. The /v1 HTTP layer (api.NewHandler) and local
// callers (api.NewLocalClient) both sit on this one implementation, so
// every transport shares the same semantics and error codes.
type Service struct {
	s *Server
}

// NewService adapts a server to the deployment-service interface.
func NewService(s *Server) *Service { return &Service{s: s} }

// Service returns the server's deployment-service adapter.
func (s *Server) Service() *Service { return NewService(s) }

var _ api.DeploymentService = (*Service)(nil)

// Handler returns the HTTP handler of the Web Services module (paper
// Figure 2), through which vehicle users, OEMs and plug-in developers
// drive the three operation groups of section 3.2.2 — user setup,
// upload, and (re)deployment: the versioned /v1 API generated from the
// api.Routes table over the Service adapter, with its middleware
// (request logging, panic recovery, body limits, per-client rate
// limiting). Binary program bytes travel base64-encoded inside the JSON
// (Go's default []byte handling), so a plain HTTP client can drive the
// whole life cycle.
func (s *Server) Handler() http.Handler {
	return api.NewHandler(NewService(s), &api.HandlerOptions{
		Logf: func(format string, args ...any) { s.logf(format, args...) },
	})
}

func (sv *Service) CreateUser(_ context.Context, req api.CreateUserRequest) (api.User, error) {
	if err := sv.s.store.AddUser(req.ID); err != nil {
		return api.User{}, err
	}
	u, _ := sv.s.store.User(req.ID)
	return u, nil
}

func (sv *Service) GetUser(_ context.Context, id core.UserID) (api.User, error) {
	u, ok := sv.s.store.User(id)
	if !ok {
		return api.User{}, api.Errorf(api.CodeNotFound, "server: unknown user %q", id)
	}
	return u, nil
}

func (sv *Service) BindVehicle(_ context.Context, req api.BindVehicleRequest) (api.VehicleRecord, error) {
	if err := sv.s.store.BindVehicle(req.Owner, req.Conf); err != nil {
		return api.VehicleRecord{}, err
	}
	vr, _ := sv.s.store.Vehicle(req.Conf.Vehicle)
	return vr, nil
}

func (sv *Service) GetVehicle(_ context.Context, id core.VehicleID) (api.VehicleDetail, error) {
	vr, ok := sv.s.store.Vehicle(id)
	if !ok {
		return api.VehicleDetail{}, api.Errorf(api.CodeNotFound, "server: unknown vehicle %s", id)
	}
	return api.VehicleDetail{VehicleRecord: vr, Installed: sv.s.store.InstalledApps(id)}, nil
}

func (sv *Service) ListVehicles(_ context.Context, page api.Page) (api.VehicleList, error) {
	items, next := api.Paginate(sv.s.store.Vehicles(), page,
		func(v api.VehicleRecord) string { return string(v.ID) })
	return api.VehicleList{Vehicles: items, NextPageToken: next}, nil
}

func (sv *Service) UploadApp(_ context.Context, app api.App) (api.AppRef, error) {
	if err := sv.s.store.UploadApp(app); err != nil {
		return api.AppRef{}, err
	}
	return api.AppRef{Name: app.Name}, nil
}

func (sv *Service) GetApp(_ context.Context, name core.AppName) (api.App, error) {
	app, ok := sv.s.store.App(name)
	if !ok {
		return api.App{}, api.Errorf(api.CodeNotFound, "server: unknown app %s", name)
	}
	return app, nil
}

func (sv *Service) ListApps(_ context.Context, page api.Page) (api.AppList, error) {
	items, next := api.Paginate(sv.s.store.Apps(), page,
		func(n core.AppName) string { return string(n) })
	return api.AppList{Apps: items, NextPageToken: next}, nil
}

func (sv *Service) Deploy(_ context.Context, req api.DeployRequest) (api.Operation, error) {
	return sv.s.Deploy(req)
}

func (sv *Service) Uninstall(_ context.Context, req api.UninstallRequest) (api.Operation, error) {
	return sv.s.Uninstall(req)
}

func (sv *Service) Upgrade(_ context.Context, req api.UpgradeRequest) (api.Operation, error) {
	return sv.s.Upgrade(req)
}

func (sv *Service) BatchUpgrade(_ context.Context, req api.BatchUpgradeRequest) (api.Operation, error) {
	return sv.s.BatchUpgrade(req)
}

func (sv *Service) StartRollout(_ context.Context, req api.RolloutRequest) (api.RolloutStatus, error) {
	return sv.s.StartRollout(req)
}

func (sv *Service) GetRollout(_ context.Context, id string) (api.RolloutStatus, error) {
	return sv.s.GetRollout(id)
}

func (sv *Service) AbortRollout(_ context.Context, id string) (api.RolloutStatus, error) {
	return sv.s.AbortRollout(id)
}

func (sv *Service) ListRollouts(_ context.Context, page api.Page) (api.RolloutList, error) {
	ids, next := api.Paginate(sv.s.RolloutIDs(), page, pageKey)
	items := make([]api.RolloutStatus, 0, len(ids))
	for _, id := range ids {
		if st, ok := sv.s.Rollout(id); ok {
			items = append(items, st)
		}
	}
	return api.RolloutList{Rollouts: items, NextPageToken: next}, nil
}

func (sv *Service) Verify(_ context.Context, req api.VerifyRequest) (api.VerifyReport, error) {
	return sv.s.verifyTarget(req.Kind, target{user: req.User, vehicle: req.Vehicle, app: req.App, toApp: req.To, ecu: req.ECU})
}

func (sv *Service) Restore(_ context.Context, req api.RestoreRequest) (api.Operation, error) {
	return sv.s.Restore(req)
}

func (sv *Service) BatchDeploy(_ context.Context, req api.BatchDeployRequest) (api.Operation, error) {
	return sv.s.BatchDeploy(req)
}

func (sv *Service) BatchUninstall(_ context.Context, req api.BatchUninstallRequest) (api.Operation, error) {
	return sv.s.BatchUninstall(req)
}

func (sv *Service) Status(_ context.Context, vehicle core.VehicleID, app core.AppName) (api.OpStatus, error) {
	if _, ok := sv.s.store.Vehicle(vehicle); !ok {
		return api.OpStatus{}, api.Errorf(api.CodeNotFound, "server: unknown vehicle %s", vehicle)
	}
	return sv.s.Status(vehicle, app), nil
}

func (sv *Service) Health(_ context.Context) (api.Health, error) {
	return sv.s.Health(), nil
}

func (sv *Service) Statz(_ context.Context) (api.Statz, error) {
	return sv.s.Statz(), nil
}

func (sv *Service) GetOperation(_ context.Context, id string) (api.Operation, error) {
	op, ok := sv.s.Operation(id)
	if !ok {
		return api.Operation{}, api.Errorf(api.CodeNotFound, "server: unknown operation %q", id)
	}
	return op, nil
}

func (sv *Service) ListOperations(_ context.Context, page api.Page) (api.OperationList, error) {
	// Page over the id list and snapshot only the requested page; with
	// fleet-scale batches in the registry, snapshotting every operation
	// (each with O(fleet) vehicle/child lists) per poll would be
	// quadratic. An id evicted between the two steps is skipped.
	ids, next := api.Paginate(sv.s.OperationIDs(), page, pageKey)
	items := make([]api.Operation, 0, len(ids))
	for _, id := range ids {
		if op, ok := sv.s.Operation(id); ok {
			items = append(items, op)
		}
	}
	return api.OperationList{Operations: items, NextPageToken: next}, nil
}

// pageKey is an operation's pagination key, increasing along opOrder:
// the foreign ids of older rollouts ("ro-…", first) sort before "op-".
func pageKey(id string) string {
	if opSeqOf(id) == 0 {
		return "op-00000000/" + id
	}
	return id
}
