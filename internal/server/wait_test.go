package server

import (
	"context"
	"net"
	"sync"
	"testing"
	"time"

	"dynautosar/internal/api"
	"dynautosar/internal/core"
)

// connectHeldVehicle attaches a fake vehicle that acknowledges nothing
// on its own: ack acknowledges every push received so far, and pushed
// reports how many arrived.
func connectHeldVehicle(t *testing.T, s *Server, id core.VehicleID) (ack func(), pushed func() int) {
	t.Helper()
	vehicleSide, serverSide := net.Pipe()
	t.Cleanup(func() { vehicleSide.Close() })
	go s.Pusher().ServeConn(serverSide)
	if err := core.WriteMessage(vehicleSide, core.Message{Type: core.MsgHello, Payload: []byte(id)}); err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var seqs []uint32
	go func() {
		for {
			msg, err := core.ReadMessage(vehicleSide)
			if err != nil {
				return
			}
			mu.Lock()
			seqs = append(seqs, msg.Seq)
			mu.Unlock()
		}
	}()
	waitFor(t, func() bool { return s.Pusher().Connected(id) })
	ack = func() {
		mu.Lock()
		unacked := seqs
		seqs = nil
		mu.Unlock()
		for _, seq := range unacked {
			if err := core.WriteMessage(vehicleSide, core.Message{Type: core.MsgAck, Seq: seq}); err != nil {
				t.Error(err)
			}
		}
	}
	pushed = func() int {
		mu.Lock()
		defer mu.Unlock()
		return len(seqs)
	}
	return ack, pushed
}

// heldDeploy deploys the paper app to a held vehicle and returns once
// both plug-in frames are on the wire, unacknowledged.
func heldDeploy(t *testing.T, vin core.VehicleID) (s *Server, op api.Operation, ack func()) {
	t.Helper()
	s = newServerWithVehicle(t, vin)
	if err := s.Store().UploadApp(paperApp(t)); err != nil {
		t.Fatal(err)
	}
	ack, pushed := connectHeldVehicle(t, s, vin)
	op, err := s.Deploy(api.DeployRequest{User: "alice", Vehicle: vin, App: "RemoteControl"})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return pushed() == 2 })
	return s, op, ack
}

// holding reports whether a GetOperation is held on the operation.
func holding(s *Server, id string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ops[id] != nil && s.ops[id].settled != nil
}

type heldAnswer struct {
	op  api.Operation
	err error
	at  time.Time
}

// holdGet starts a GetOperation held until the deadline and returns the
// channel its answer arrives on.
func holdGet(ctx context.Context, s *Server, id string, until time.Time) <-chan heldAnswer {
	out := make(chan heldAnswer, 1)
	go func() {
		op, err := NewService(s).GetOperation(api.WithWait(ctx, until), id)
		out <- heldAnswer{op, err, time.Now()}
	}()
	return out
}

// TestWaitGetOperationWakesOnSettle: held reads of an open operation
// all return within milliseconds of the ack that settles it, not at
// their deadline; a read of the settled operation answers at once.
func TestWaitGetOperationWakesOnSettle(t *testing.T) {
	s, op, ack := heldDeploy(t, "VIN-WAIT")
	ctx := context.Background()
	var held []<-chan heldAnswer
	for i := 0; i < 4; i++ {
		held = append(held, holdGet(ctx, s, op.ID, time.Now().Add(api.MaxWait)))
	}
	waitFor(t, func() bool { return holding(s, op.ID) })
	acked := time.Now()
	ack()
	for _, ch := range held {
		got := <-ch
		if got.err != nil || !got.op.Done || got.op.State != api.StateSucceeded {
			t.Fatalf("held read = %+v, %v; want the settled operation", got.op, got.err)
		}
		if lag := got.at.Sub(acked); lag > api.MaxWait/10 {
			t.Fatalf("held read returned %v after the settling ack", lag)
		}
	}
	start := time.Now()
	got, err := NewService(s).GetOperation(api.WithWait(ctx, time.Now().Add(api.MaxWait)), op.ID)
	if err != nil || !got.Done {
		t.Fatalf("read of the settled operation = %+v, %v", got, err)
	}
	if d := time.Since(start); d > api.MaxWait/10 {
		t.Fatalf("read of the settled operation held for %v", d)
	}
}

// TestWaitGetOperationDeadline: a held read of an operation that does
// not settle answers not-done at its deadline; an unknown id answers
// not_found at once.
func TestWaitGetOperationDeadline(t *testing.T) {
	s, op, _ := heldDeploy(t, "VIN-WAIT-DL")
	ctx := context.Background()
	const hold = 50 * time.Millisecond
	start := time.Now()
	got := <-holdGet(ctx, s, op.ID, start.Add(hold))
	if got.err != nil || got.op.Done || got.op.State != api.StateRunning {
		t.Fatalf("held read at the deadline = %+v, %v; want running", got.op, got.err)
	}
	if d := got.at.Sub(start); d < hold || d > api.MaxWait/10 {
		t.Fatalf("held read answered after %v, want its %v deadline", d, hold)
	}
	start = time.Now()
	_, err := NewService(s).GetOperation(api.WithWait(ctx, time.Now().Add(api.MaxWait)), "op-99999999")
	if api.CodeOf(err) != api.CodeNotFound {
		t.Fatalf("held read of an unknown id = %v, want not_found", err)
	}
	if d := time.Since(start); d > api.MaxWait/10 {
		t.Fatalf("unknown id held for %v", d)
	}
}

// TestWaitGetOperationEndsWithServer: a read held on an operation that
// will never settle returns promptly when the server shuts down under
// it, by Close or by Crash, and when the caller gives up.
func TestWaitGetOperationEndsWithServer(t *testing.T) {
	for _, tc := range []struct {
		name string
		stop func(s *Server, cancel context.CancelFunc)
	}{
		{"Close", func(s *Server, _ context.CancelFunc) { s.Close() }},
		{"Crash", func(s *Server, _ context.CancelFunc) { s.Crash() }},
		{"ctx", func(_ *Server, cancel context.CancelFunc) { cancel() }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, op, _ := heldDeploy(t, "VIN-WAIT-"+core.VehicleID(tc.name))
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			held := holdGet(ctx, s, op.ID, time.Now().Add(api.MaxWait))
			waitFor(t, func() bool { return holding(s, op.ID) })
			stopped := time.Now()
			tc.stop(s, cancel)
			got := <-held
			if got.err != nil {
				t.Fatalf("held read = %v", got.err)
			}
			if lag := got.at.Sub(stopped); lag > api.MaxWait/10 {
				t.Fatalf("held read outlived %s by %v", tc.name, lag)
			}
		})
	}
}
