package api

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"
)

func TestErrorCodesMapToHTTPAndBack(t *testing.T) {
	cases := []struct {
		code   ErrorCode
		status int
	}{
		{CodeInvalidArgument, http.StatusBadRequest},
		{CodeNotFound, http.StatusNotFound},
		{CodeAlreadyExists, http.StatusConflict},
		{CodePermissionDenied, http.StatusForbidden},
		{CodeFailedPrecondition, http.StatusConflict},
		{CodeResourceExhausted, http.StatusTooManyRequests},
		{CodeUnavailable, http.StatusServiceUnavailable},
		{CodeInternal, http.StatusInternalServerError},
	}
	for _, c := range cases {
		if got := HTTPStatus(c.code); got != c.status {
			t.Errorf("HTTPStatus(%s) = %d, want %d", c.code, got, c.status)
		}
	}
	// The reverse mapping recovers a usable code for every mapped status.
	for _, c := range cases {
		if c.code == CodeFailedPrecondition {
			continue // 409 maps back to already_exists
		}
		if got := CodeFromHTTPStatus(c.status); got != c.code {
			t.Errorf("CodeFromHTTPStatus(%d) = %s, want %s", c.status, got, c.code)
		}
	}
}

func TestErrorHelpers(t *testing.T) {
	err := Errorf(CodeNotFound, "no vehicle %s", "VIN1")
	if err.Error() != "no vehicle VIN1" {
		t.Fatalf("message = %q", err.Error())
	}
	if CodeOf(err) != CodeNotFound {
		t.Fatalf("code = %s", CodeOf(err))
	}
	if CodeOf(nil) != "" {
		t.Fatal("nil error has a code")
	}
	// Wrapped API errors keep their code; foreign errors become internal.
	wrapped := fmt.Errorf("outer: %w", err)
	if CodeOf(wrapped) != CodeNotFound {
		t.Fatalf("wrapped code = %s", CodeOf(wrapped))
	}
	if CodeOf(fmt.Errorf("plain")) != CodeInternal {
		t.Fatalf("plain error code = %s", CodeOf(fmt.Errorf("plain")))
	}
	// The wire envelope round-trips the code.
	raw, _ := json.Marshal(ErrorBody(err))
	var env struct {
		Error *Error `json:"error"`
	}
	if json.Unmarshal(raw, &env) != nil || env.Error.Code != CodeNotFound {
		t.Fatalf("envelope round trip = %s", raw)
	}
}

func TestPaginate(t *testing.T) {
	items := []string{"a", "b", "c", "d", "e"}
	key := func(s string) string { return s }

	page, next := Paginate(items, Page{Size: 2}, key)
	if len(page) != 2 || page[0] != "a" || next != "b" {
		t.Fatalf("first page = %v next %q", page, next)
	}
	page, next = Paginate(items, Page{Size: 2, Token: next}, key)
	if len(page) != 2 || page[0] != "c" || next != "d" {
		t.Fatalf("second page = %v next %q", page, next)
	}
	page, next = Paginate(items, Page{Size: 2, Token: next}, key)
	if len(page) != 1 || page[0] != "e" || next != "" {
		t.Fatalf("last page = %v next %q", page, next)
	}
	// Default size swallows the whole list; a stale token past the end
	// yields an empty page.
	page, next = Paginate(items, Page{}, key)
	if len(page) != 5 || next != "" {
		t.Fatalf("default page = %v next %q", page, next)
	}
	page, _ = Paginate(items, Page{Size: 2, Token: "z"}, key)
	if len(page) != 0 {
		t.Fatalf("past-the-end page = %v", page)
	}
}

// panicSvc panics on every call, to exercise the recovery middleware.
// The embedded nil interface makes any other method panic as well.
type panicSvc struct{ DeploymentService }

func (panicSvc) ListApps(context.Context, Page) (AppList, error) { panic("boom") }

func TestHandlerRecoversPanics(t *testing.T) {
	h := NewHandler(panicSvc{}, &HandlerOptions{})
	srv := httptest.NewServer(h)
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/v1/apps")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("panicking handler = %d", resp.StatusCode)
	}
	var env struct {
		Error *Error `json:"error"`
	}
	if json.NewDecoder(resp.Body).Decode(&env) != nil || env.Error == nil || env.Error.Code != CodeInternal {
		t.Fatalf("panic body = %+v", env)
	}
}

func TestHandlerRejectsOversizedBodies(t *testing.T) {
	h := NewHandler(panicSvc{}, &HandlerOptions{MaxBodyBytes: 64})
	srv := httptest.NewServer(h)
	defer srv.Close()

	big := strings.NewReader(`{"id": "` + strings.Repeat("x", 1024) + `"}`)
	resp, err := http.Post(srv.URL+"/v1/users", "application/json", big)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("oversized body = %d", resp.StatusCode)
	}
}

func TestRateLimiter(t *testing.T) {
	l := newRateLimiter(10, 2)
	if !l.allow("a") || !l.allow("a") {
		t.Fatal("burst refused")
	}
	if l.allow("a") {
		t.Fatal("over-burst allowed")
	}
	// Another client has its own bucket.
	if !l.allow("b") {
		t.Fatal("fresh client refused")
	}
	// Tokens refill with time.
	time.Sleep(150 * time.Millisecond)
	if !l.allow("a") {
		t.Fatal("refill failed")
	}
}

func TestWaitOperationHonoursContext(t *testing.T) {
	c := NewLocalClient(stuckSvc{})
	ctx, cancel := context.WithTimeout(context.Background(), 80*time.Millisecond)
	defer cancel()
	_, err := c.WaitOperation(ctx, "op-1", 10*time.Millisecond)
	if CodeOf(err) != CodeUnavailable {
		t.Fatalf("WaitOperation on stuck op = %v", err)
	}
}

// waitSvc records the wait deadline each GetOperation call carries.
type waitSvc struct {
	DeploymentService
	until chan time.Time
}

func (s waitSvc) GetOperation(ctx context.Context, id string) (Operation, error) {
	until, _ := WaitDeadline(ctx)
	s.until <- until
	return Operation{ID: id, Done: true}, nil
}

// TestWaitParamCarriesTheDeadline: a client's wait deadline reaches the
// service behind the handler as ?wait=, clamped to MaxWait; without one
// the call carries none.
func TestWaitParamCarriesTheDeadline(t *testing.T) {
	svc := waitSvc{until: make(chan time.Time, 1)}
	srv := httptest.NewServer(NewHandler(svc, &HandlerOptions{RatePerSecond: -1}))
	defer srv.Close()
	c := NewClient(srv.URL, nil)
	ctx := context.Background()
	for _, tc := range []struct {
		name      string
		wait      time.Duration // 0: no WithWait
		want, tol time.Duration
	}{
		{"none", 0, 0, 0},
		{"short", 2 * time.Second, 2 * time.Second, time.Second},
		{"clamped", 1000 * time.Hour, MaxWait, time.Second},
	} {
		cctx := ctx
		if tc.wait > 0 {
			cctx = WithWait(ctx, time.Now().Add(tc.wait))
		}
		if _, err := c.GetOperation(cctx, "op-1"); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		until := <-svc.until
		if tc.wait == 0 {
			if !until.IsZero() {
				t.Errorf("%s: service saw a wait until %v", tc.name, until)
			}
			continue
		}
		if d := time.Until(until); d > tc.want || d < tc.want-tc.tol {
			t.Errorf("%s: service saw a wait of %v, want about %v", tc.name, d, tc.want)
		}
	}
}

// stuckSvc reports one never-finishing operation.
type stuckSvc struct{ DeploymentService }

func (stuckSvc) GetOperation(_ context.Context, id string) (Operation, error) {
	return Operation{ID: id, State: StateRunning}, nil
}

// TestStatzAddCoversEveryField: every Statz field is either aggregated
// by Add — summed, or the worst value for ReplLagBytes — or one of the
// per-process identity fields, so a counter added to Statz cannot drop
// out of a federated /v1/statz unnoticed.
func TestStatzAddCoversEveryField(t *testing.T) {
	identity := map[string]bool{"Shard": true, "Role": true, "ShardEpoch": true, "JournalGen": true, "LastSegmentShipped": true}
	worst := map[string]bool{"ReplLagBytes": true}
	var one Statz
	v := reflect.ValueOf(&one).Elem()
	for i := 0; i < v.NumField(); i++ {
		switch f := v.Field(i); {
		case f.CanInt():
			f.SetInt(3)
		case f.CanUint():
			f.SetUint(3)
		case f.Kind() == reflect.String:
			f.SetString("x")
		case f.Type() == reflect.TypeOf(map[string]uint64{}):
			f.Set(reflect.ValueOf(map[string]uint64{"ok": 3}))
		default:
			t.Fatalf("Statz.%s: no test value for type %s", v.Type().Field(i).Name, f.Type())
		}
	}
	var sum Statz
	sum.Add(one)
	sum.Add(one)
	got := reflect.ValueOf(sum)
	for i := 0; i < got.NumField(); i++ {
		name := got.Type().Field(i).Name
		if identity[name] {
			continue
		}
		want := uint64(6)
		if worst[name] {
			want = 3
		}
		var n uint64
		switch f := got.Field(i); {
		case f.CanInt():
			n = uint64(f.Int())
		case f.CanUint():
			n = f.Uint()
		case f.Kind() == reflect.Map:
			n = f.Interface().(map[string]uint64)["ok"]
		}
		if n != want {
			t.Errorf("Statz.%s = %d after adding 3 twice, want %d: the field is neither aggregated by Add nor a per-process identity field", name, n, want)
		}
	}
}
