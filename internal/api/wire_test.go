package api

import (
	"context"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"dynautosar/internal/core"
)

// The wire contract of /v1, pinned literally: every DeploymentService
// method is sent through NewClient -> NewHandler -> a recording fake,
// and the test asserts the request line and success status the pair
// puts on the wire and that argument and response survive the round
// trip. The literals below are the contract; nothing here is derived
// from the code under test.

// recSvc records the one call a case makes and answers with the case's
// canned response.
type recSvc struct {
	method string
	arg    any
	out    any
}

func rec[R any](s *recSvc, method string, arg any) (R, error) {
	s.method, s.arg = method, arg
	return s.out.(R), nil
}

// statusArgs is how recSvc records the two-argument Status call.
type statusArgs struct {
	Vehicle core.VehicleID
	App     core.AppName
}

func (s *recSvc) CreateUser(_ context.Context, req CreateUserRequest) (User, error) {
	return rec[User](s, "CreateUser", req)
}
func (s *recSvc) GetUser(_ context.Context, id core.UserID) (User, error) {
	return rec[User](s, "GetUser", id)
}
func (s *recSvc) BindVehicle(_ context.Context, req BindVehicleRequest) (VehicleRecord, error) {
	return rec[VehicleRecord](s, "BindVehicle", req)
}
func (s *recSvc) GetVehicle(_ context.Context, id core.VehicleID) (VehicleDetail, error) {
	return rec[VehicleDetail](s, "GetVehicle", id)
}
func (s *recSvc) ListVehicles(_ context.Context, page Page) (VehicleList, error) {
	return rec[VehicleList](s, "ListVehicles", page)
}
func (s *recSvc) UploadApp(_ context.Context, app App) (AppRef, error) {
	return rec[AppRef](s, "UploadApp", app)
}
func (s *recSvc) GetApp(_ context.Context, name core.AppName) (App, error) {
	return rec[App](s, "GetApp", name)
}
func (s *recSvc) ListApps(_ context.Context, page Page) (AppList, error) {
	return rec[AppList](s, "ListApps", page)
}
func (s *recSvc) Deploy(_ context.Context, req DeployRequest) (Operation, error) {
	return rec[Operation](s, "Deploy", req)
}
func (s *recSvc) Uninstall(_ context.Context, req UninstallRequest) (Operation, error) {
	return rec[Operation](s, "Uninstall", req)
}
func (s *recSvc) Upgrade(_ context.Context, req UpgradeRequest) (Operation, error) {
	return rec[Operation](s, "Upgrade", req)
}
func (s *recSvc) Restore(_ context.Context, req RestoreRequest) (Operation, error) {
	return rec[Operation](s, "Restore", req)
}
func (s *recSvc) Verify(_ context.Context, req VerifyRequest) (VerifyReport, error) {
	return rec[VerifyReport](s, "Verify", req)
}
func (s *recSvc) BatchDeploy(_ context.Context, req BatchDeployRequest) (Operation, error) {
	return rec[Operation](s, "BatchDeploy", req)
}
func (s *recSvc) BatchUninstall(_ context.Context, req BatchUninstallRequest) (Operation, error) {
	return rec[Operation](s, "BatchUninstall", req)
}
func (s *recSvc) BatchUpgrade(_ context.Context, req BatchUpgradeRequest) (Operation, error) {
	return rec[Operation](s, "BatchUpgrade", req)
}
func (s *recSvc) StartRollout(_ context.Context, req RolloutRequest) (RolloutStatus, error) {
	return rec[RolloutStatus](s, "StartRollout", req)
}
func (s *recSvc) GetRollout(_ context.Context, id string) (RolloutStatus, error) {
	return rec[RolloutStatus](s, "GetRollout", id)
}
func (s *recSvc) AbortRollout(_ context.Context, id string) (RolloutStatus, error) {
	return rec[RolloutStatus](s, "AbortRollout", id)
}
func (s *recSvc) ListRollouts(_ context.Context, page Page) (RolloutList, error) {
	return rec[RolloutList](s, "ListRollouts", page)
}
func (s *recSvc) Status(_ context.Context, vehicle core.VehicleID, app core.AppName) (OpStatus, error) {
	return rec[OpStatus](s, "Status", statusArgs{vehicle, app})
}
func (s *recSvc) Health(context.Context) (Health, error) { return rec[Health](s, "Health", nil) }
func (s *recSvc) Statz(context.Context) (Statz, error)   { return rec[Statz](s, "Statz", nil) }
func (s *recSvc) GetOperation(_ context.Context, id string) (Operation, error) {
	return rec[Operation](s, "GetOperation", id)
}
func (s *recSvc) ListOperations(_ context.Context, page Page) (OperationList, error) {
	return rec[OperationList](s, "ListOperations", page)
}

// wireCase is one row of the contract.
type wireCase struct {
	method string // DeploymentService method
	verb   string
	uri    string // request URI exactly as it appears on the wire
	status int
	arg    any // what the service must receive
	out    any // what the service answers and the client must return
	call   func(ctx context.Context, c *Client, arg any) (any, error)
}

var (
	wireOp      = Operation{ID: "op-00000007", Kind: OpDeploy, User: "alice", Vehicle: "VIN 1/a", App: "A", State: StateRunning, Total: 2, Acked: 1}
	wireRollout = RolloutStatus{ID: "ro-1", User: "alice", From: "A", To: "B", State: RolloutRunning,
		Vehicles: []core.VehicleID{"V1", "V2"}, Waves: []RolloutWaveStatus{{Targets: 1, Started: true}, {Targets: 1}}}
	wirePage = Page{Size: 2, Token: "a b"}
	wireSel  = &FleetSelector{Owner: "alice", Model: "m1"}
)

var wireCases = []wireCase{
	{"CreateUser", "POST", "/v1/users", 201, CreateUserRequest{ID: "alice"}, User{ID: "alice", Vehicles: []core.VehicleID{}},
		func(ctx context.Context, c *Client, a any) (any, error) {
			return c.CreateUser(ctx, a.(CreateUserRequest))
		}},
	{"GetUser", "GET", "/v1/users/al%20ice%2Fx", 200, core.UserID("al ice/x"), User{ID: "al ice/x", Vehicles: []core.VehicleID{"V1"}},
		func(ctx context.Context, c *Client, a any) (any, error) { return c.GetUser(ctx, a.(core.UserID)) }},
	{"BindVehicle", "POST", "/v1/vehicles", 201,
		BindVehicleRequest{Owner: "alice", Conf: core.VehicleConf{Vehicle: "V1", Model: "m1", SWCs: []core.SWCConf{{ECU: "E", SWC: "S", ECM: true}}}},
		VehicleRecord{ID: "V1", Owner: "alice", Conf: core.VehicleConf{Vehicle: "V1", Model: "m1"}},
		func(ctx context.Context, c *Client, a any) (any, error) {
			return c.BindVehicle(ctx, a.(BindVehicleRequest))
		}},
	{"GetVehicle", "GET", "/v1/vehicles/VIN%201%2Fa", 200, core.VehicleID("VIN 1/a"),
		VehicleDetail{VehicleRecord: VehicleRecord{ID: "VIN 1/a", Owner: "alice"}, Installed: []InstalledApp{{App: "A", Vehicle: "VIN 1/a"}}},
		func(ctx context.Context, c *Client, a any) (any, error) { return c.GetVehicle(ctx, a.(core.VehicleID)) }},
	{"ListVehicles", "GET", "/v1/vehicles?pageSize=2&pageToken=a+b", 200, wirePage,
		VehicleList{Vehicles: []VehicleRecord{{ID: "V1", Owner: "alice"}}, NextPageToken: "V1"},
		func(ctx context.Context, c *Client, a any) (any, error) { return c.ListVehicles(ctx, a.(Page)) }},
	{"UploadApp", "POST", "/v1/apps", 201, App{Name: "A", Confs: []SWConf{{Model: "m1"}}}, AppRef{Name: "A"},
		func(ctx context.Context, c *Client, a any) (any, error) { return c.UploadApp(ctx, a.(App)) }},
	{"GetApp", "GET", "/v1/apps/A:v2", 200, core.AppName("A:v2"), App{Name: "A:v2"},
		func(ctx context.Context, c *Client, a any) (any, error) { return c.GetApp(ctx, a.(core.AppName)) }},
	{"ListApps", "GET", "/v1/apps", 200, Page{}, AppList{Apps: []core.AppName{"A", "B"}},
		func(ctx context.Context, c *Client, a any) (any, error) { return c.ListApps(ctx, a.(Page)) }},
	{"Deploy", "POST", "/v1/deploy", 202, DeployRequest{User: "alice", Vehicle: "V1", App: "A", IdempotencyKey: "k1"}, wireOp,
		func(ctx context.Context, c *Client, a any) (any, error) { return c.Deploy(ctx, a.(DeployRequest)) }},
	{"Uninstall", "POST", "/v1/uninstall", 202, UninstallRequest{User: "alice", Vehicle: "V1", App: "A"}, wireOp,
		func(ctx context.Context, c *Client, a any) (any, error) {
			return c.Uninstall(ctx, a.(UninstallRequest))
		}},
	{"Upgrade", "POST", "/v1/upgrade", 202, UpgradeRequest{User: "alice", Vehicle: "V1", From: "A", To: "B", IdempotencyKey: "k2"}, wireOp,
		func(ctx context.Context, c *Client, a any) (any, error) { return c.Upgrade(ctx, a.(UpgradeRequest)) }},
	{"Restore", "POST", "/v1/restore", 202, RestoreRequest{User: "alice", Vehicle: "V1", ECU: "ECU2"}, wireOp,
		func(ctx context.Context, c *Client, a any) (any, error) { return c.Restore(ctx, a.(RestoreRequest)) }},
	{"Verify", "POST", "/v1/verify", 200, VerifyRequest{User: "alice", Vehicle: "V1", Kind: OpUpgrade, App: "A", To: "B"},
		VerifyReport{OK: false, Steps: []string{"swap COM"}, Error: &Error{Code: CodeUnsafePlan, Message: "orphaned port"}},
		func(ctx context.Context, c *Client, a any) (any, error) { return c.Verify(ctx, a.(VerifyRequest)) }},
	{"BatchDeploy", "POST", "/v1/deploy:batch", 202,
		BatchDeployRequest{User: "alice", Vehicles: []core.VehicleID{"V1", "V2"}, App: "A", IdempotencyKey: "k3"}, wireOp,
		func(ctx context.Context, c *Client, a any) (any, error) {
			return c.BatchDeploy(ctx, a.(BatchDeployRequest))
		}},
	{"BatchUninstall", "POST", "/v1/uninstall:batch", 202, BatchUninstallRequest{User: "alice", Selector: wireSel, App: "A"}, wireOp,
		func(ctx context.Context, c *Client, a any) (any, error) {
			return c.BatchUninstall(ctx, a.(BatchUninstallRequest))
		}},
	{"BatchUpgrade", "POST", "/v1/upgrade:batch", 202, BatchUpgradeRequest{User: "alice", Selector: wireSel, From: "A", To: "B"}, wireOp,
		func(ctx context.Context, c *Client, a any) (any, error) {
			return c.BatchUpgrade(ctx, a.(BatchUpgradeRequest))
		}},
	{"StartRollout", "POST", "/v1/rollout", 202,
		RolloutRequest{User: "alice", Vehicles: []core.VehicleID{"V1", "V2"}, From: "A", To: "B",
			Waves: []RolloutWave{{Count: 1}, {Fraction: 1}}, Health: &RolloutHealthPolicy{MaxFailureRate: 0.5}},
		wireRollout,
		func(ctx context.Context, c *Client, a any) (any, error) {
			return c.StartRollout(ctx, a.(RolloutRequest))
		}},
	{"GetRollout", "GET", "/v1/rollouts/s1%2Fro-1", 200, "s1/ro-1", wireRollout,
		func(ctx context.Context, c *Client, a any) (any, error) { return c.GetRollout(ctx, a.(string)) }},
	{"AbortRollout", "POST", "/v1/rollouts/s1%2Fro-1:abort", 202, "s1/ro-1", wireRollout,
		func(ctx context.Context, c *Client, a any) (any, error) { return c.AbortRollout(ctx, a.(string)) }},
	{"ListRollouts", "GET", "/v1/rollouts?pageSize=2&pageToken=a+b", 200, wirePage,
		RolloutList{Rollouts: []RolloutStatus{wireRollout}, NextPageToken: "ro-1"},
		func(ctx context.Context, c *Client, a any) (any, error) { return c.ListRollouts(ctx, a.(Page)) }},
	{"Status", "GET", "/v1/status?app=A%26b&vehicle=VIN+1", 200, statusArgs{"VIN 1", "A&b"},
		OpStatus{App: "A&b", Total: 2, Acked: 1, Failures: []string{"OP: boom"}},
		func(ctx context.Context, c *Client, a any) (any, error) {
			q := a.(statusArgs)
			return c.Status(ctx, q.Vehicle, q.App)
		}},
	{"Health", "GET", "/v1/healthz", 200, nil, Health{Status: "ok", Journal: true, SnapshotAge: -1, Shard: "s1", Role: "leader", ShardEpoch: 3},
		func(ctx context.Context, c *Client, _ any) (any, error) { return c.Health(ctx) }},
	{"Statz", "GET", "/v1/statz", 200, nil, Statz{OpsCreated: 9, OpsSettled: map[string]uint64{"ok": 8}, PushesSent: 18},
		func(ctx context.Context, c *Client, _ any) (any, error) { return c.Statz(ctx) }},
	{"GetOperation", "GET", "/v1/operations/s1%2Fop-00000007", 200, "s1/op-00000007", wireOp,
		func(ctx context.Context, c *Client, a any) (any, error) { return c.GetOperation(ctx, a.(string)) }},
	{"ListOperations", "GET", "/v1/operations?pageSize=2&pageToken=a+b", 200, wirePage,
		OperationList{Operations: []Operation{wireOp}, NextPageToken: "op-00000007"},
		func(ctx context.Context, c *Client, a any) (any, error) { return c.ListOperations(ctx, a.(Page)) }},
}

func TestWireContract(t *testing.T) {
	svc := &recSvc{}
	var gotVerb, gotURI string
	var gotStatus int
	h := NewHandler(svc, &HandlerOptions{})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		gotVerb, gotURI = r.Method, r.URL.RequestURI()
		rw := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		h.ServeHTTP(rw, r)
		gotStatus = rw.status
	}))
	defer srv.Close()
	c := NewClient(srv.URL, nil)

	// The contract covers the whole interface: a method added without a
	// row here fails before anything is sent.
	covered := make(map[string]bool, len(wireCases))
	for _, tc := range wireCases {
		covered[tc.method] = true
	}
	iface := reflect.TypeOf((*DeploymentService)(nil)).Elem()
	for i := 0; i < iface.NumMethod(); i++ {
		if name := iface.Method(i).Name; !covered[name] {
			t.Errorf("DeploymentService.%s has no wire-contract case", name)
		}
	}

	for _, tc := range wireCases {
		t.Run(tc.method, func(t *testing.T) {
			*svc = recSvc{out: tc.out}
			out, err := tc.call(context.Background(), c, tc.arg)
			if err != nil {
				t.Fatalf("%s over the wire: %v", tc.method, err)
			}
			if gotVerb != tc.verb || gotURI != tc.uri || gotStatus != tc.status {
				t.Errorf("wire = %s %s -> %d, want %s %s -> %d", gotVerb, gotURI, gotStatus, tc.verb, tc.uri, tc.status)
			}
			if svc.method != tc.method {
				t.Errorf("request reached %s, want %s", svc.method, tc.method)
			}
			if !reflect.DeepEqual(svc.arg, tc.arg) {
				t.Errorf("service received %#v, want %#v", svc.arg, tc.arg)
			}
			if !reflect.DeepEqual(out, tc.out) {
				t.Errorf("client returned %#v, want %#v", out, tc.out)
			}
		})
	}
}

// TestWireErrorsAndEdges pins the non-success half of the contract:
// the error envelope with its status mapping, strict decoding, the
// catch-all, and the one custom verb.
func TestWireErrorsAndEdges(t *testing.T) {
	srv := httptest.NewServer(NewHandler(failSvc{}, &HandlerOptions{}))
	defer srv.Close()
	c := NewClient(srv.URL, nil)
	ctx := context.Background()

	// A typed service error crosses the wire with code and message intact.
	_, err := c.Deploy(ctx, DeployRequest{User: "alice", Vehicle: "V1", App: "A"})
	if e := AsError(err); e.Code != CodeFailedPrecondition || e.Message != "nope" {
		t.Fatalf("typed error over the wire = %+v", e)
	}

	for _, tc := range []struct {
		verb, path, body string
		status           int
		code             ErrorCode
	}{
		{"POST", "/v1/deploy", `{"user":"alice","bogus":1}`, 400, CodeInvalidArgument}, // unknown field
		{"POST", "/v1/deploy", `{`, 400, CodeInvalidArgument},                          // malformed
		{"POST", "/v1/deploy", `{"user":"alice"}`, 409, CodeFailedPrecondition},        // service error mapping
		{"GET", "/v1/nope", ``, 404, CodeNotFound},                                     // catch-all
		{"DELETE", "/v1/users", ``, 404, CodeNotFound},                                 // wrong verb on a known path
		{"GET", "/v1/status?vehicle=V1", ``, 400, CodeInvalidArgument},                 // missing query parameter
		{"GET", "/v1/apps?pageSize=-1", ``, 400, CodeInvalidArgument},                  // bad page size
		{"GET", "/v1/apps?pageSize=x", ``, 400, CodeInvalidArgument},
		{"POST", "/v1/rollouts/ro-1", ``, 400, CodeInvalidArgument},          // no custom verb
		{"POST", "/v1/rollouts/ro-1:pause", ``, 400, CodeInvalidArgument},    // unknown custom verb
		{"POST", "/v1/rollouts/:abort", ``, 400, CodeInvalidArgument},        // empty id
		{"POST", "/v1/rollouts/ro-1:abort", ``, 409, CodeFailedPrecondition}, // the verb reaches the service
	} {
		req, err := http.NewRequest(tc.verb, srv.URL+tc.path, strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		werr := decodeError(resp)
		resp.Body.Close()
		if resp.StatusCode != tc.status || CodeOf(werr) != tc.code {
			t.Errorf("%s %s %q = %d %s, want %d %s", tc.verb, tc.path, tc.body, resp.StatusCode, CodeOf(werr), tc.status, tc.code)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
			t.Errorf("%s %s error content type = %q", tc.verb, tc.path, ct)
		}
	}
}

// failSvc rejects the calls TestWireErrorsAndEdges lets through; any
// other method panics on the nil embedded interface.
type failSvc struct{ DeploymentService }

func (failSvc) Deploy(context.Context, DeployRequest) (Operation, error) {
	return Operation{}, Errorf(CodeFailedPrecondition, "nope")
}

func (failSvc) AbortRollout(context.Context, string) (RolloutStatus, error) {
	return RolloutStatus{}, Errorf(CodeFailedPrecondition, "nope")
}
