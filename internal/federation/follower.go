package federation

import (
	"errors"
	"io"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"

	"dynautosar/internal/api"
	"dynautosar/internal/journal"
	"dynautosar/internal/server"
)

// FollowerNode is a shard's standby server process: it holds a
// journal.Replica that mirrors the leader's WAL byte for byte, answers
// the replication endpoints the leader's shipper drives, and rejects
// every client request with `not_leader` until POST /v1/promote turns
// it into a full server — recovering the replicated journal, bumping
// the shard epoch past the dead leader's, and opening the pusher
// listener for the reconnecting vehicles.

// FollowerOptions configures a follower node.
type FollowerOptions struct {
	// Shard is the shard this node stands by for.
	Shard string
	// Name identifies this follower in logs and leader status.
	Name string
	// Dir is the replica's journal directory.
	Dir string
	// PushAddr is the pusher listen address opened on promotion
	// ("" = promoted server runs without a vehicle listener).
	PushAddr string
	// Logf receives diagnostics; nil disables.
	Logf func(format string, args ...any)
}

// FollowerNode implements http.Handler for the follower's /v1 surface.
type FollowerNode struct {
	o   FollowerOptions
	mux *http.ServeMux

	// promoted holds the full server's handler once promotion has
	// happened; every request is delegated there from then on.
	promoted atomic.Pointer[http.Handler]

	mu      sync.Mutex
	replica *journal.Replica
	srv     *server.Server
	pushL   net.Listener
}

// NewFollowerNode opens (or resumes) the replica directory and builds
// the node.
func NewFollowerNode(o FollowerOptions) (*FollowerNode, error) {
	if o.Logf == nil {
		o.Logf = func(string, ...any) {}
	}
	rep, err := journal.OpenReplica(o.Dir, o.Logf)
	if err != nil {
		return nil, err
	}
	f := &FollowerNode{o: o, replica: rep}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/replicate/segment", f.handleSegment)
	mux.HandleFunc("POST /v1/replicate/snapshot", f.handleSnapshot)
	mux.HandleFunc("GET /v1/replicate/status", f.handleStatus)
	mux.HandleFunc("POST /v1/promote", f.handlePromote)
	mux.HandleFunc("GET /v1/healthz", f.handleHealthz)
	mux.HandleFunc("GET /v1/statz", f.handleStatz)
	mux.HandleFunc("/v1/", f.handleNotLeader)
	f.mux = mux
	return f, nil
}

func (f *FollowerNode) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if h := f.promoted.Load(); h != nil {
		(*h).ServeHTTP(w, r)
		return
	}
	f.mux.ServeHTTP(w, r)
}

// Server returns the promoted server, nil while still a follower.
func (f *FollowerNode) Server() *server.Server {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.srv
}

// Close shuts the node down: the replica while following, the full
// server (and its pusher listener) after promotion.
func (f *FollowerNode) Close() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.srv != nil {
		if f.pushL != nil {
			f.pushL.Close()
		}
		err := f.srv.Close()
		if err != nil && errors.Is(err, net.ErrClosed) {
			err = nil
		}
		return err
	}
	return f.replica.Close()
}

// gapBody is the wire shape of a replication gap rejection; the HTTP
// ship transport turns it back into a *journal.GapError so the
// leader's shipper falls into a directory resync.
type gapBody struct {
	Gap  bool   `json:"gap"`
	Gen  uint64 `json:"gen"`
	Size int64  `json:"size"`
}

// maxReplicateBody bounds one shipped chunk or snapshot image (a group
// commit is KBs, a snapshot MBs; 1 GiB is a generous backstop, not a
// sizing hint).
const maxReplicateBody = 1 << 30

func (f *FollowerNode) replicateBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxReplicateBody))
	if err != nil {
		api.WriteJSON(w, http.StatusBadRequest,
			api.ErrorBody(api.Errorf(api.CodeInvalidArgument, "federation: reading replication body: %v", err)), f.o.Logf)
		return nil, false
	}
	return body, true
}

func (f *FollowerNode) handleSegment(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	gen, err1 := strconv.ParseUint(q.Get("gen"), 10, 64)
	offset, err2 := strconv.ParseInt(q.Get("offset"), 10, 64)
	reset := q.Get("reset") == "true"
	if err1 != nil || err2 != nil {
		api.WriteJSON(w, http.StatusBadRequest,
			api.ErrorBody(api.Errorf(api.CodeInvalidArgument, "federation: segment needs numeric gen and offset")), f.o.Logf)
		return
	}
	chunk, ok := f.replicateBody(w, r)
	if !ok {
		return
	}
	f.mu.Lock()
	rep, srv := f.replica, f.srv
	f.mu.Unlock()
	if srv != nil {
		// Promoted: the old leader (or a partitioned shipper) is still
		// talking to us; it must not write into a journal we now own.
		f.handleNotLeader(w, r)
		return
	}
	if err := rep.ApplySegment(gen, offset, chunk, reset); err != nil {
		var gap *journal.GapError
		if errors.As(err, &gap) {
			api.WriteJSON(w, http.StatusConflict, gapBody{Gap: true, Gen: gap.Gen, Size: gap.Size}, f.o.Logf)
			return
		}
		if api.CodeOf(err) == api.CodeInvalidArgument {
			api.WriteJSON(w, http.StatusBadRequest, api.ErrorBody(err), f.o.Logf)
			return
		}
		api.WriteJSON(w, http.StatusInternalServerError,
			api.ErrorBody(api.Errorf(api.CodeUnavailable, "federation: apply segment: %v", err)), f.o.Logf)
		return
	}
	api.WriteJSON(w, http.StatusOK, rep.State(), f.o.Logf)
}

func (f *FollowerNode) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	gen, err := strconv.ParseUint(r.URL.Query().Get("gen"), 10, 64)
	if err != nil {
		api.WriteJSON(w, http.StatusBadRequest,
			api.ErrorBody(api.Errorf(api.CodeInvalidArgument, "federation: snapshot needs a numeric gen")), f.o.Logf)
		return
	}
	image, ok := f.replicateBody(w, r)
	if !ok {
		return
	}
	f.mu.Lock()
	rep, srv := f.replica, f.srv
	f.mu.Unlock()
	if srv != nil {
		f.handleNotLeader(w, r)
		return
	}
	if err := rep.ApplySnapshot(gen, image); err != nil {
		api.WriteJSON(w, http.StatusInternalServerError,
			api.ErrorBody(api.Errorf(api.CodeUnavailable, "federation: apply snapshot: %v", err)), f.o.Logf)
		return
	}
	api.WriteJSON(w, http.StatusOK, rep.State(), f.o.Logf)
}

func (f *FollowerNode) handleStatus(w http.ResponseWriter, r *http.Request) {
	f.mu.Lock()
	rep := f.replica
	f.mu.Unlock()
	api.WriteJSON(w, http.StatusOK, rep.State(), f.o.Logf)
}

// PromoteResult is the POST /v1/promote response body.
type PromoteResult struct {
	Shard      string `json:"shard"`
	Role       string `json:"role"`
	ShardEpoch uint64 `json:"shardEpoch"`
	// Recovered summarizes the journal replay of the promotion.
	RecoveredRecords      int  `json:"recoveredRecords"`
	InterruptedOperations int  `json:"interruptedOperations"`
	TornTail              bool `json:"tornTail"`
}

// Promote turns the follower into this shard's leader: it stops
// accepting replication, recovers a full server from the replicated
// journal, journals a bumped shard epoch, and opens the pusher
// listener. Idempotent — a second call reports the existing leader.
func (f *FollowerNode) Promote() (PromoteResult, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.srv != nil {
		shard, role, epoch := f.srv.ShardInfo()
		return PromoteResult{Shard: shard, Role: role, ShardEpoch: epoch}, nil
	}
	if err := f.replica.Close(); err != nil {
		f.o.Logf("federation: closing replica before promotion: %v", err)
	}
	srv := server.New()
	srv.SetLogger(f.o.Logf)
	srv.SetShard(f.o.Shard)
	if err := srv.OpenJournal(f.o.Dir); err != nil {
		return PromoteResult{}, api.Errorf(api.CodeUnavailable, "federation: recovering replicated journal: %v", err)
	}
	if err := srv.BecomeLeader("promoted"); err != nil {
		srv.Close()
		return PromoteResult{}, api.Errorf(api.CodeUnavailable, "federation: journaling leadership epoch: %v", err)
	}
	if f.o.PushAddr != "" {
		l, err := net.Listen("tcp", f.o.PushAddr)
		if err != nil {
			srv.Close()
			return PromoteResult{}, api.Errorf(api.CodeUnavailable, "federation: pusher listen %s: %v", f.o.PushAddr, err)
		}
		f.pushL = l
		go srv.Pusher().Serve(l)
		f.o.Logf("federation: shard %s pusher listening on %s", f.o.Shard, l.Addr())
	}
	f.srv = srv
	h := srv.Handler()
	f.promoted.Store(&h)
	st := srv.RecoveryStats()
	shard, role, epoch := srv.ShardInfo()
	return PromoteResult{
		Shard: shard, Role: role, ShardEpoch: epoch,
		RecoveredRecords: st.Records, InterruptedOperations: st.Interrupted, TornTail: st.TornTail,
	}, nil
}

func (f *FollowerNode) handlePromote(w http.ResponseWriter, r *http.Request) {
	res, err := f.Promote()
	if err != nil {
		api.WriteJSON(w, api.HTTPStatus(api.CodeOf(err)), api.ErrorBody(err), f.o.Logf)
		return
	}
	api.WriteJSON(w, http.StatusOK, res, f.o.Logf)
}

func (f *FollowerNode) handleHealthz(w http.ResponseWriter, r *http.Request) {
	st := f.replica.State()
	h := api.Health{
		Status:      "ok",
		Journal:     true,
		SnapshotAge: -1,
		Shard:       f.o.Shard,
		Role:        "follower",
	}
	if st.Err != "" {
		h.Status = "degraded"
		h.JournalError = st.Err
	}
	api.WriteJSON(w, http.StatusOK, h, f.o.Logf)
}

func (f *FollowerNode) handleStatz(w http.ResponseWriter, r *http.Request) {
	st := f.replica.State()
	api.WriteJSON(w, http.StatusOK, api.Statz{
		Shard:      f.o.Shard,
		Role:       "follower",
		JournalGen: st.Gen,
	}, f.o.Logf)
}

// handleNotLeader answers every client-facing /v1 request: this node
// does not serve reads or writes, the router should try a sibling.
func (f *FollowerNode) handleNotLeader(w http.ResponseWriter, r *http.Request) {
	err := api.Errorf(api.CodeNotLeader,
		"federation: %s %s: shard %s replica %s is a follower", r.Method, r.URL.Path, f.o.Shard, f.o.Name)
	api.WriteJSON(w, api.HTTPStatus(api.CodeNotLeader), api.ErrorBody(err), f.o.Logf)
}
