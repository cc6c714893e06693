package api

import (
	"context"
	"testing"
	"time"

	"dynautosar/internal/core"
)

// flakySvc fails Deploy with a scripted error per attempt, recording
// the idempotency key each attempt carried. Only the methods the tests
// exercise are implemented; the embedded nil interface panics on any
// other call, which is exactly the regression we want to catch.
type flakySvc struct {
	DeploymentService
	errs []error // errs[i] returned on attempt i; past the end -> success
	keys []string
	gets int
	// rollouts counts StartRollout calls, each counted before it fails.
	rollouts int
}

func (s *flakySvc) Deploy(_ context.Context, req DeployRequest) (Operation, error) {
	attempt := len(s.keys)
	s.keys = append(s.keys, req.IdempotencyKey)
	if attempt < len(s.errs) {
		return Operation{}, s.errs[attempt]
	}
	return Operation{ID: "op-00000001", Vehicle: req.Vehicle, App: req.App}, nil
}

func (s *flakySvc) StartRollout(context.Context, RolloutRequest) (Operation, error) {
	attempt := s.rollouts
	s.rollouts++
	if attempt < len(s.errs) {
		return Operation{}, s.errs[attempt]
	}
	return Operation{ID: "op-00000001", Kind: OpRollout}, nil
}

func (s *flakySvc) GetUser(context.Context, core.UserID) (User, error) {
	s.gets++
	return User{}, Errorf(CodeUnavailable, "api: shard down")
}

func noSleep(context.Context, time.Duration) error { return nil }

// TestRetryClientFailoverErrors pins the federated retry contract: a
// create that hits a deposed leader and then a dead one is retried with
// the SAME idempotency key until a live leader answers.
func TestRetryClientFailoverErrors(t *testing.T) {
	svc := &flakySvc{errs: []error{
		Errorf(CodeNotLeader, "api: shard s1 is a follower"),
		Errorf(CodeUnavailable, "api: connection refused"),
	}}
	c := NewRetryClient(svc, RetryOptions{Sleep: noSleep})
	op, err := c.Deploy(context.Background(), DeployRequest{User: "alice", Vehicle: "VIN-1", App: "A"})
	if err != nil {
		t.Fatalf("deploy through two transient errors: %v", err)
	}
	if op.ID != "op-00000001" {
		t.Fatalf("unexpected operation %+v", op)
	}
	if len(svc.keys) != 3 {
		t.Fatalf("saw %d attempts, want 3", len(svc.keys))
	}
	if svc.keys[0] == "" {
		t.Fatal("no idempotency key stamped before the first attempt")
	}
	if svc.keys[0] != svc.keys[1] || svc.keys[1] != svc.keys[2] {
		t.Fatalf("idempotency key changed across retries: %q — a failover would duplicate the operation", svc.keys)
	}
}

// TestRetryClientKeysPerCall checks a caller-provided key is honored
// and that distinct logical calls never share a generated key.
func TestRetryClientKeysPerCall(t *testing.T) {
	svc := &flakySvc{}
	c := NewRetryClient(svc, RetryOptions{Sleep: noSleep})
	ctx := context.Background()
	if _, err := c.Deploy(ctx, DeployRequest{Vehicle: "VIN-1", App: "A", IdempotencyKey: "caller-key"}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Deploy(ctx, DeployRequest{Vehicle: "VIN-1", App: "A"}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Deploy(ctx, DeployRequest{Vehicle: "VIN-2", App: "A"}); err != nil {
		t.Fatal(err)
	}
	if svc.keys[0] != "caller-key" {
		t.Fatalf("caller key overwritten: %q", svc.keys[0])
	}
	if svc.keys[1] == svc.keys[2] {
		t.Fatalf("two logical creates shared generated key %q", svc.keys[1])
	}
}

// TestRetryClientNonRetryable checks a semantic rejection is surfaced
// immediately — retrying an invalid request would only hide the bug.
func TestRetryClientNonRetryable(t *testing.T) {
	svc := &flakySvc{errs: []error{Errorf(CodeInvalidArgument, "api: no such app")}}
	c := NewRetryClient(svc, RetryOptions{Sleep: noSleep})
	_, err := c.Deploy(context.Background(), DeployRequest{Vehicle: "VIN-1", App: "nope"})
	if CodeOf(err) != CodeInvalidArgument {
		t.Fatalf("got %v, want the invalid_argument surfaced unretried", err)
	}
	if len(svc.keys) != 1 {
		t.Fatalf("non-retryable error was retried %d times", len(svc.keys)-1)
	}
}

// TestRetryClientAttemptBudget checks the attempt cap: a persistently
// dead shard exhausts the budget and the last error comes back.
func TestRetryClientAttemptBudget(t *testing.T) {
	svc := &flakySvc{}
	c := NewRetryClient(svc, RetryOptions{Attempts: 3, Sleep: noSleep})
	_, err := c.GetUser(context.Background(), "alice")
	if CodeOf(err) != CodeUnavailable {
		t.Fatalf("got %v, want unavailable after budget exhaustion", err)
	}
	if svc.gets != 3 {
		t.Fatalf("made %d attempts, want exactly the budget of 3", svc.gets)
	}
}

// TestRetryClientKeylessCreateSentOnce: StartRollout carries no
// idempotency key, and `unavailable` is also what a response lost after
// the leader journaled the rollout looks like — re-sending would start a
// second rollout on the same fleet. `not_leader` is a refusal before
// anything happened, so that alone is retried.
func TestRetryClientKeylessCreateSentOnce(t *testing.T) {
	svc := &flakySvc{errs: []error{Errorf(CodeUnavailable, "api: connection reset")}}
	c := NewRetryClient(svc, RetryOptions{Sleep: noSleep})
	_, err := c.StartRollout(context.Background(), RolloutRequest{User: "alice", From: "A", To: "B"})
	if CodeOf(err) != CodeUnavailable {
		t.Fatalf("got %v, want the ambiguous unavailable surfaced", err)
	}
	if svc.rollouts != 1 {
		t.Fatalf("keyless create sent %d times after an ambiguous failure, want exactly 1", svc.rollouts)
	}

	svc = &flakySvc{errs: []error{Errorf(CodeNotLeader, "api: shard s1 is a follower")}}
	c = NewRetryClient(svc, RetryOptions{Sleep: noSleep})
	if _, err := c.StartRollout(context.Background(), RolloutRequest{User: "alice", From: "A", To: "B"}); err != nil {
		t.Fatalf("StartRollout through a not_leader refusal: %v", err)
	}
	if svc.rollouts != 2 {
		t.Fatalf("made %d attempts through one not_leader, want 2", svc.rollouts)
	}
}
