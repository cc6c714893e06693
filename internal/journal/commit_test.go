package journal

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"dynautosar/internal/core"
)

// Commit scheduling, pinned without wall-clock assertions: a gate on
// the sync hook holds the writer inside a commit, so what is in the
// open batch — and what started the commit — is decided by the test,
// not by timing.

// syncGate is a FaultInjection.SyncDelay hook that reports every sync
// on entered and, while armed, holds it until released.
type syncGate struct {
	entered chan struct{}
	release chan struct{}
}

func newSyncGate() *syncGate {
	// entered is sized past the syncs any test here makes, so an unread
	// report never stalls the writer.
	return &syncGate{entered: make(chan struct{}, 16), release: make(chan struct{})}
}

func (g *syncGate) hook() time.Duration {
	g.entered <- struct{}{}
	<-g.release
	return 0
}

func (g *syncGate) fault() *FaultInjection { return &FaultInjection{SyncDelay: g.hook} }

func (j *Journal) lingeredCommits() uint64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.lingered
}

// eventually polls cond until it holds, failing the test after 10 s.
func eventually(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestCommitWaiterDriven: on an idle journal a waited append goes
// straight to the sync — the waiter, not the linger timer, starts the
// commit, and each gets a commit of its own.
func TestCommitWaiterDriven(t *testing.T) {
	j, _ := mustOpen(t, t.TempDir(), Options{})
	defer j.Close()
	g := newSyncGate()
	j.SetFault(g.fault())
	for i := 0; i < 50; i++ {
		done := make(chan error, 1)
		go func() { done <- j.Append(UserAddedRec(core.UserID(fmt.Sprintf("u%d", i)))).Wait() }()
		<-g.entered
		g.release <- struct{}{}
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	// A waiter descheduled for the whole linger bound between its Append
	// and its Wait loses the race to the timer; a writer that needed the
	// timer would lose it every time.
	if n := j.lingeredCommits(); n > 5 {
		t.Fatalf("%d of 50 waited commits were started by the linger timer", n)
	}
	if st := j.Stats(); st.Flushes != 50 {
		t.Fatalf("flushes = %d, want one per waited append (50)", st.Flushes)
	}
}

// TestCommitBatchesBehindInflightSync: everything that arrives while a
// sync is in flight shares the next commit.
func TestCommitBatchesBehindInflightSync(t *testing.T) {
	dir := t.TempDir()
	j, _ := mustOpen(t, dir, Options{})
	g := newSyncGate()
	j.SetFault(g.fault())
	first := make(chan error, 1)
	go func() { first <- j.Append(UserAddedRec("first")).Wait() }()
	<-g.entered // the writer is inside the first commit

	const n = 64
	var appended, settled sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		appended.Add(1)
		settled.Add(1)
		go func() {
			defer settled.Done()
			tk := j.Append(UserAddedRec(core.UserID(fmt.Sprintf("w%02d", i))))
			appended.Done()
			errs[i] = tk.Wait()
		}()
	}
	appended.Wait()
	g.release <- struct{}{}
	if err := <-first; err != nil {
		t.Fatal(err)
	}
	<-g.entered
	g.release <- struct{}{}
	settled.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("waiter %d: %v", i, err)
		}
	}
	if st := j.Stats(); st.Flushes != 2 || st.Appended != n+1 {
		t.Fatalf("flushes = %d appended = %d, want 2 commits for %d records", st.Flushes, st.Appended, n+1)
	}
	j.SetFault(nil)
	j.Crash()
	_, rec := mustOpen(t, dir, Options{})
	if len(rec.Records) != n+1 {
		t.Fatalf("recovered %d records, want %d", len(rec.Records), n+1)
	}
}

// TestCommitLingerBound: an append nobody waits on is committed by the
// linger bound alone, and a Wait that comes later finds it settled and
// schedules nothing.
func TestCommitLingerBound(t *testing.T) {
	j, _ := mustOpen(t, t.TempDir(), Options{})
	defer j.Close()
	g := newSyncGate()
	j.SetFault(g.fault())
	tk := j.Append(UserAddedRec("advisory"))
	<-g.entered
	g.release <- struct{}{}
	eventually(t, "the lingered commit", func() bool { return j.Stats().Flushes == 1 })
	if n := j.lingeredCommits(); n != 1 {
		t.Fatalf("lingered commits = %d, want 1", n)
	}
	if err := tk.Wait(); err != nil {
		t.Fatal(err)
	}
	if err := j.Sync(); err != nil {
		t.Fatal(err)
	}
	if st := j.Stats(); st.Flushes != 1 {
		t.Fatalf("flushes = %d after waiting on a settled ticket, want 1", st.Flushes)
	}
}

// TestCommitLingerShutdown: a batch still lingering when the journal
// stops is committed by Close and dropped by Crash, exactly as a batch
// that was never delayed.
func TestCommitLingerShutdown(t *testing.T) {
	for _, crash := range []bool{false, true} {
		name := "close"
		if crash {
			name = "crash"
		}
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			j, _ := mustOpen(t, dir, Options{})
			g := newSyncGate()
			j.SetFault(g.fault())
			// Hold the writer inside a commit so the advisory record
			// below is certain to be in the open batch at shutdown.
			first := make(chan error, 1)
			go func() { first <- j.Append(UserAddedRec("durable")).Wait() }()
			<-g.entered
			tk := j.Append(UserAddedRec("lingering"))
			stopped := make(chan struct{})
			go func() {
				defer close(stopped)
				if crash {
					j.Crash()
				} else if err := j.Close(); err != nil {
					t.Error(err)
				}
			}()
			eventually(t, "shutdown to begin", func() bool {
				j.mu.Lock()
				defer j.mu.Unlock()
				return j.closed
			})
			close(g.release) // this sync and, on Close, the final one
			if err := <-first; err != nil {
				t.Fatal(err)
			}
			<-stopped
			if err := tk.Wait(); (err != nil) != crash {
				t.Fatalf("lingering ticket: err = %v, crash = %v", err, crash)
			}
			_, rec := mustOpen(t, dir, Options{})
			want := []core.UserID{"durable", "lingering"}
			if crash {
				want = want[:1]
			}
			if got := userIDs(rec.Records); fmt.Sprint(got) != fmt.Sprint(want) || rec.TornTail {
				t.Fatalf("recovered %v (torn=%v), want %v", got, rec.TornTail, want)
			}
		})
	}
}
