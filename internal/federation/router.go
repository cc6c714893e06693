package federation

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"dynautosar/internal/api"
	"dynautosar/internal/core"
)

// Router is the front tier's api.DeploymentService: every request lands
// on the shard that owns its vehicle (consistent hashing over the
// ring), fleet-wide requests fan out per shard, and each shard call
// rotates through the shard's replicas when the addressed server
// answers `not_leader` or is unreachable — so a shard failover is, from
// the client's point of view, a brief window of retried requests and
// nothing else.
//
// Entity semantics across shards: users and apps are global (creates
// fan out everywhere, idempotently), vehicles and their installed rows
// live only on the owning shard, and a fan-out batch is represented by
// a router-local "fed-" parent whose children are the per-shard batch
// parents, addressed by qualified ids ("<shard>/op-000123").

// Replica is one addressable server of a shard.
type Replica struct {
	Name string
	Svc  api.DeploymentService
}

// Shard is one partition of the control plane: its name on the ring
// and its replicas (leader + followers, in any order — the router
// discovers which one leads).
type Shard struct {
	Name     string
	Replicas []Replica
}

// RouterOptions tunes request routing.
type RouterOptions struct {
	// Attempts caps per-call tries across a shard's replicas (0 = two
	// full rotations).
	Attempts int
	// Backoff paces the wait after each full fruitless rotation.
	Backoff core.Backoff
	// Sleep replaces the real wait (tests); nil uses a timer.
	Sleep func(context.Context, time.Duration) error
	// Logf receives routing diagnostics; nil disables.
	Logf func(format string, args ...any)
}

// Router implements api.DeploymentService over a set of shards. The
// embedded Stub sends every method through Invoke, which serves it by
// its route's class; the typed methods below shadow the stub only where
// the router aggregates shard answers or keeps state of its own.
type Router struct {
	api.Stub
	ring   *Ring
	names  []string // sorted shard names, the deterministic fan-out order
	byName map[string]*shardState
	o      RouterOptions

	// fed is the registry of router-local batch parents.
	fedMu    sync.Mutex
	fedSeq   uint64
	fedOps   map[string]*fedOp
	fedOrder []string
}

type shardState struct {
	shard Shard
	mu    sync.Mutex
	// leader is the replica index that last answered a call without
	// `not_leader`; rotation starts there.
	leader int
}

// fedOp is a fan-out batch parent: static identity here, live tallies
// aggregated from the per-shard children at read time.
type fedOp struct {
	op api.Operation
}

// NewRouter builds the front tier over the given shards.
func NewRouter(shards []Shard, opts RouterOptions) (*Router, error) {
	if len(shards) == 0 {
		return nil, fmt.Errorf("federation: router needs at least one shard")
	}
	if opts.Attempts <= 0 {
		n := 0
		for _, s := range shards {
			n += len(s.Replicas)
		}
		opts.Attempts = 2 * max(n, 1)
	}
	if opts.Sleep == nil {
		opts.Sleep = func(ctx context.Context, d time.Duration) error {
			t := time.NewTimer(d)
			defer t.Stop()
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-t.C:
				return nil
			}
		}
	}
	if opts.Logf == nil {
		opts.Logf = func(string, ...any) {}
	}
	r := &Router{
		byName: make(map[string]*shardState, len(shards)),
		o:      opts,
		fedOps: make(map[string]*fedOp),
	}
	r.Stub = api.Stub{Invoker: r}
	var names []string
	for i := range shards {
		s := shards[i]
		if s.Name == "" || len(s.Replicas) == 0 {
			return nil, fmt.Errorf("federation: shard %d needs a name and at least one replica", i)
		}
		if r.byName[s.Name] != nil {
			return nil, fmt.Errorf("federation: duplicate shard %q", s.Name)
		}
		r.byName[s.Name] = &shardState{shard: s}
		names = append(names, s.Name)
	}
	sort.Strings(names)
	r.names = names
	r.ring = NewRing(names, 0)
	return r, nil
}

// Ring exposes the router's vehicle→shard partition (simulators and
// tests share it so everyone agrees on ownership).
func (r *Router) Ring() *Ring { return r.ring }

// shardFor resolves the owning shard of a vehicle.
func (r *Router) shardFor(v core.VehicleID) *shardState {
	return r.byName[r.ring.Owner(v)]
}

// callShard runs a route against a shard, starting at the cached leader
// and rotating replicas while the error is resendable for that route
// (`not_leader` always; `unavailable` too unless the route is
// at-most-once — it may be a dead leader's connection error, and probing
// the siblings is cheap next to a spurious failure mid-failover),
// backing off after each full fruitless rotation. On exhaustion it
// returns the most informative error seen: an application error from a
// leader beats the `not_leader` chorus of the followers.
func (r *Router) callShard(ctx context.Context, ss *shardState, rt *api.Route, arg any) (any, error) {
	n := len(ss.shard.Replicas)
	ss.mu.Lock()
	start := ss.leader
	ss.mu.Unlock()
	b := r.o.Backoff
	var out any
	var err error
	var lastApp error // last non-not_leader error, the one worth surfacing
	for try := 0; ; try++ {
		idx := (start + try) % n
		out, err = rt.Call(ctx, ss.shard.Replicas[idx].Svc, arg)
		if err == nil || !rt.Resendable(err) {
			ss.mu.Lock()
			ss.leader = idx
			ss.mu.Unlock()
			return out, err
		}
		code := api.CodeOf(err)
		if code != api.CodeNotLeader {
			lastApp = err
		}
		if try+1 >= r.o.Attempts {
			break
		}
		r.o.Logf("federation: %s on %s/%s: %s; rotating", rt.Name, ss.shard.Name, ss.shard.Replicas[idx].Name, code)
		if (try+1)%n == 0 {
			if serr := r.o.Sleep(ctx, b.Next()); serr != nil {
				break
			}
		}
	}
	if lastApp != nil {
		return out, lastApp
	}
	return out, err
}

// onShard is callShard for the typed methods below.
func onShard[T any](ctx context.Context, r *Router, ss *shardState, method string, arg any) (T, error) {
	out, err := r.callShard(ctx, ss, api.RouteOf(method), arg)
	v, _ := out.(T)
	return v, err
}

var _ api.DeploymentService = (*Router)(nil)

// Invoke serves one route by its class. Ids in the answer come back
// qualified ("<shard>/op-000123"), so every id a client sees through the
// router resolves without shard probing.
func (r *Router) Invoke(ctx context.Context, rt *api.Route, arg any) (any, error) {
	switch rt.Class {
	case api.Owner:
		ss, err := r.ownerOf(rt, arg)
		if err != nil {
			return nil, err
		}
		out, err := r.callShard(ctx, ss, rt, arg)
		if err != nil {
			return nil, err
		}
		return qualify(ss.shard.Name, out), nil
	case api.Broadcast:
		return r.broadcast(ctx, rt, arg)
	case api.AnyShard:
		// Global entities are on every shard; the first one's answer is
		// the fleet's.
		return r.callShard(ctx, r.byName[r.names[0]], rt, arg)
	case api.ByID:
		return r.byQualifiedID(ctx, rt, arg.(string))
	}
	return nil, api.Errorf(api.CodeInternal, "federation: %s aggregates across shards and needs a typed method", rt.Name)
}

// ownerOf resolves the one shard that owns every vehicle of an
// Owner-class request.
func (r *Router) ownerOf(rt *api.Route, arg any) (*shardState, error) {
	vehicles := rt.Vehicles(arg)
	if len(vehicles) == 1 {
		return r.shardFor(vehicles[0]), nil
	}
	if len(vehicles) == 0 {
		return nil, api.Errorf(api.CodeInvalidArgument,
			"federation: %s needs an explicit vehicle list (selectors cannot span shards)", rt.Name)
	}
	parts := r.ring.Partition(vehicles)
	shards := make([]string, 0, len(parts))
	for s := range parts {
		shards = append(shards, s)
	}
	if len(shards) > 1 {
		sort.Strings(shards)
		return nil, api.Errorf(api.CodeInvalidArgument,
			"federation: %s vehicles span shards %v; issue one request per shard", rt.Name, shards)
	}
	return r.byName[shards[0]], nil
}

// broadcast applies a create of a global entity on every shard. It
// succeeds if any shard created (a retried half-complete fan-out
// converges), answers already_exists only if every shard did — what a
// single server answers to the same duplicate — and stops at the first
// real error.
func (r *Router) broadcast(ctx context.Context, rt *api.Route, arg any) (any, error) {
	var created any
	var dup error
	for _, name := range r.names {
		out, err := r.callShard(ctx, r.byName[name], rt, arg)
		switch {
		case err == nil:
			if created == nil {
				created = out
			}
		case api.CodeOf(err) == api.CodeAlreadyExists:
			dup = err
		default:
			return nil, err
		}
	}
	if created == nil {
		return nil, dup
	}
	return created, nil
}

// byQualifiedID routes a "<shard>/<id>" to its shard; a bare id (ids
// created through the router are always qualified; this serves
// hand-typed ones) is probed shard by shard.
func (r *Router) byQualifiedID(ctx context.Context, rt *api.Route, id string) (any, error) {
	if ss, rest, ok := r.splitQualified(id); ok {
		out, err := r.callShard(ctx, ss, rt, rest)
		if err != nil {
			return nil, err
		}
		return qualify(ss.shard.Name, out), nil
	}
	for _, name := range r.names {
		out, err := r.callShard(ctx, r.byName[name], rt, id)
		if err == nil {
			return qualify(name, out), nil
		}
		if api.CodeOf(err) != api.CodeNotFound {
			return nil, err
		}
	}
	return nil, api.Errorf(api.CodeNotFound, "federation: %s: no shard knows %q", rt.Name, id)
}

// qualify rewrites the ids in a shard's answer into the router's
// namespace, so clients can navigate parent/children across the tier.
// A shard's answer is always a fresh snapshot, rewritten in place.
func qualify(shard string, out any) any {
	q := func(id string) string {
		if id == "" {
			return ""
		}
		return shard + "/" + id
	}
	switch v := out.(type) {
	case api.Operation:
		v.ID, v.Parent = q(v.ID), q(v.Parent)
		for i, c := range v.Children {
			v.Children[i] = q(c)
		}
		return v
	case api.RolloutStatus:
		v.ID = q(v.ID)
		for i := range v.Waves {
			w := &v.Waves[i]
			w.BatchOp, w.RollbackOp = q(w.BatchOp), q(w.RollbackOp)
		}
		return v
	case api.OperationList:
		for i, op := range v.Operations {
			v.Operations[i] = qualify(shard, op).(api.Operation)
		}
		return v
	case api.RolloutList:
		for i, ro := range v.Rollouts {
			v.Rollouts[i] = qualify(shard, ro).(api.RolloutStatus)
		}
		return v
	}
	return out
}

func (r *Router) GetUser(ctx context.Context, id core.UserID) (api.User, error) {
	// The user record is global but its vehicle list is per shard; merge.
	var out api.User
	found := false
	for _, name := range r.names {
		u, err := onShard[api.User](ctx, r, r.byName[name], "GetUser", id)
		if err != nil {
			if api.CodeOf(err) == api.CodeNotFound {
				continue
			}
			return api.User{}, err
		}
		if !found {
			out, found = u, true
		} else {
			out.Vehicles = append(out.Vehicles, u.Vehicles...)
		}
	}
	if !found {
		return api.User{}, api.Errorf(api.CodeNotFound, "federation: unknown user %q", id)
	}
	sort.Slice(out.Vehicles, func(i, k int) bool { return out.Vehicles[i] < out.Vehicles[k] })
	return out, nil
}

func (r *Router) ListVehicles(ctx context.Context, page api.Page) (api.VehicleList, error) {
	return listAcrossShards(ctx, r, "ListVehicles", page, func(l *api.VehicleList) *string { return &l.NextPageToken })
}

// ---- fleet-wide batches fan out per shard under a fed- parent ----

// batchFanOut is the fan-out the three batch kinds share: perShard
// builds one shard's copy of the request (its slice of the vehicles, its
// derived idempotency key), and the per-shard batch parents become the
// children of a router-local fed- parent.
func (r *Router) batchFanOut(ctx context.Context, method string, kind api.OperationKind, user core.UserID,
	vehicles []core.VehicleID, sel *api.FleetSelector, app, toApp core.AppName, idemKey string,
	perShard func(shardVehicles []core.VehicleID, key string) any,
) (api.Operation, error) {
	if len(vehicles) > 0 && sel != nil {
		return api.Operation{}, api.Errorf(api.CodeInvalidArgument, "federation: batch request names both vehicles and a selector")
	}
	// Targets per shard: an explicit list partitions on the ring; a
	// selector goes to every shard, which resolves its own slice of the
	// fleet ("matches no vehicles" from some shards is fine as long as
	// one matched).
	targets := make(map[string][]core.VehicleID, len(r.names))
	if len(vehicles) > 0 {
		for shard, vs := range r.ring.Partition(vehicles) {
			targets[shard] = vs
		}
	} else {
		for _, name := range r.names {
			targets[name] = nil
		}
	}
	order := make([]string, 0, len(targets))
	for _, name := range r.names {
		if _, ok := targets[name]; ok {
			order = append(order, name)
		}
	}
	// Single-shard fast path: no fed parent needed, the shard's own
	// batch parent is the operation (qualified so polls route back).
	if len(order) == 1 && len(vehicles) > 0 {
		op, err := onShard[api.Operation](ctx, r, r.byName[order[0]], method, perShard(targets[order[0]], idemKey))
		if err != nil {
			return api.Operation{}, err
		}
		return qualify(order[0], op).(api.Operation), nil
	}

	var children []string
	var allVehicles []core.VehicleID
	var firstErr error
	matched := 0
	for _, name := range order {
		// Derive a per-shard idempotency key, so a retried fan-out
		// re-binds to the shard parents the first attempt created.
		key := idemKey
		if key != "" {
			key = fmt.Sprintf("%s@%s", idemKey, name)
		}
		op, err := onShard[api.Operation](ctx, r, r.byName[name], method, perShard(targets[name], key))
		if err != nil {
			if sel != nil && api.CodeOf(err) == api.CodeFailedPrecondition {
				continue // this shard owns no matching vehicles
			}
			if firstErr == nil {
				firstErr = fmt.Errorf("shard %s: %w", name, err)
			}
			// Keep fanning out: a half-placed batch plus a visible error
			// beats silently orphaning the shards already running. The
			// fed parent still tracks what did launch.
			r.o.Logf("federation: %s fan-out to %s failed: %v", kind, name, err)
			continue
		}
		matched++
		children = append(children, name+"/"+op.ID)
		allVehicles = append(allVehicles, op.Vehicles...)
	}
	if matched == 0 {
		if firstErr != nil {
			return api.Operation{}, firstErr
		}
		return api.Operation{}, api.Errorf(api.CodeFailedPrecondition, "federation: fleet selector matches no vehicles on any shard")
	}

	r.fedMu.Lock()
	r.fedSeq++
	id := fmt.Sprintf("fed-%08d", r.fedSeq)
	f := &fedOp{op: api.Operation{
		ID:             id,
		Kind:           kind,
		User:           user,
		App:            app,
		ToApp:          toApp,
		State:          api.StateRunning,
		Vehicles:       allVehicles,
		Children:       children,
		IdempotencyKey: idemKey,
	}}
	if firstErr != nil {
		f.op.Failures = append(f.op.Failures, firstErr.Error())
	}
	r.fedOps[id] = f
	r.fedOrder = append(r.fedOrder, id)
	snap := f.op
	r.fedMu.Unlock()
	return snap, nil
}

func (r *Router) BatchDeploy(ctx context.Context, req api.BatchDeployRequest) (api.Operation, error) {
	return r.batchFanOut(ctx, "BatchDeploy", api.OpBatchDeploy, req.User, req.Vehicles, req.Selector, req.App, "", req.IdempotencyKey,
		func(vs []core.VehicleID, key string) any {
			req.Vehicles, req.IdempotencyKey = vs, key
			return req
		})
}

func (r *Router) BatchUninstall(ctx context.Context, req api.BatchUninstallRequest) (api.Operation, error) {
	return r.batchFanOut(ctx, "BatchUninstall", api.OpBatchUninstall, req.User, req.Vehicles, req.Selector, req.App, "", req.IdempotencyKey,
		func(vs []core.VehicleID, key string) any {
			req.Vehicles, req.IdempotencyKey = vs, key
			return req
		})
}

func (r *Router) BatchUpgrade(ctx context.Context, req api.BatchUpgradeRequest) (api.Operation, error) {
	return r.batchFanOut(ctx, "BatchUpgrade", api.OpBatchUpgrade, req.User, req.Vehicles, req.Selector, req.From, req.To, req.IdempotencyKey,
		func(vs []core.VehicleID, key string) any {
			req.Vehicles, req.IdempotencyKey = vs, key
			return req
		})
}

// ---- operations: qualified ids, fed- aggregation ----

// splitQualified parses "<shard>/<id>"; ok is false for bare ids.
func (r *Router) splitQualified(id string) (ss *shardState, rest string, ok bool) {
	shard, rest, found := strings.Cut(id, "/")
	if !found {
		return nil, "", false
	}
	ss = r.byName[shard]
	if ss == nil {
		return nil, "", false
	}
	return ss, rest, true
}

func (r *Router) GetOperation(ctx context.Context, id string) (api.Operation, error) {
	if strings.HasPrefix(id, "fed-") {
		return r.getFedOperation(ctx, id)
	}
	return r.Stub.GetOperation(ctx, id)
}

// getFedOperation aggregates a fan-out parent from its per-shard batch
// parents: tallies summed, terminal exactly when every child is.
func (r *Router) getFedOperation(ctx context.Context, id string) (api.Operation, error) {
	r.fedMu.Lock()
	f := r.fedOps[id]
	var snap api.Operation
	if f != nil {
		snap = f.op
		snap.Failures = append([]string(nil), f.op.Failures...)
		snap.Vehicles = append([]core.VehicleID(nil), f.op.Vehicles...)
		snap.Children = append([]string(nil), f.op.Children...)
	}
	r.fedMu.Unlock()
	if f == nil {
		return api.Operation{}, api.Errorf(api.CodeNotFound, "federation: unknown operation %q", id)
	}
	allDone := true
	anyFailed := false
	for _, cid := range snap.Children {
		ss, rest, ok := r.splitQualified(cid)
		if !ok {
			continue
		}
		child, err := onShard[api.Operation](ctx, r, ss, "GetOperation", rest)
		if err != nil {
			// The shard is mid-failover; report the parent as still
			// running — the next poll lands on the promoted leader, which
			// recovered the batch from the replicated journal.
			allDone = false
			continue
		}
		snap.Total += child.Total
		snap.Acked += child.Acked
		snap.VehiclesSucceeded += child.VehiclesSucceeded
		snap.VehiclesFailed += child.VehiclesFailed
		if len(child.Failures) > 0 {
			snap.Failures = append(snap.Failures, child.Failures...)
		}
		if !child.Done {
			allDone = false
		} else if child.State == api.StateFailed {
			anyFailed = true
			if child.Error != nil {
				snap.Failures = append(snap.Failures, ss.shard.Name+": "+child.Error.Message)
			}
		}
	}
	if allDone {
		snap.Done = true
		if anyFailed || len(snap.Failures) > 0 {
			snap.State = api.StateFailed
		} else {
			snap.State = api.StateSucceeded
		}
	} else {
		snap.State = api.StateRunning
	}
	return snap, nil
}

func (r *Router) ListOperations(ctx context.Context, page api.Page) (api.OperationList, error) {
	// The fed- registry pages first ("" token), then each shard under a
	// composite "<shard>|<token>" cursor; shard ops come back qualified.
	if page.Token == "" || strings.HasPrefix(page.Token, "fed|") {
		r.fedMu.Lock()
		ids := append([]string(nil), r.fedOrder...)
		r.fedMu.Unlock()
		p := page
		p.Token = strings.TrimPrefix(p.Token, "fed|")
		pageIDs, next := api.Paginate(ids, p, func(id string) string { return id })
		items := make([]api.Operation, 0, len(pageIDs))
		for _, id := range pageIDs {
			if op, err := r.getFedOperation(ctx, id); err == nil {
				items = append(items, op)
			}
		}
		if next != "" {
			return api.OperationList{Operations: items, NextPageToken: "fed|" + next}, nil
		}
		if len(r.names) > 0 {
			return api.OperationList{Operations: items, NextPageToken: r.names[0] + "|"}, nil
		}
		return api.OperationList{Operations: items}, nil
	}
	return listAcrossShards(ctx, r, "ListOperations", page, func(l *api.OperationList) *string { return &l.NextPageToken })
}

func (r *Router) ListRollouts(ctx context.Context, page api.Page) (api.RolloutList, error) {
	return listAcrossShards(ctx, r, "ListRollouts", page, func(l *api.RolloutList) *string { return &l.NextPageToken })
}

// ---- aggregated monitoring ----

func (r *Router) Health(ctx context.Context) (api.Health, error) {
	out := api.Health{Status: "ok", Shard: "federated", SnapshotAge: -1}
	for _, name := range r.names {
		h, err := onShard[api.Health](ctx, r, r.byName[name], "Health", struct{}{})
		if err != nil {
			out.Status = "degraded"
			out.JournalError = appendReason(out.JournalError, name+": unreachable: "+err.Error())
			continue
		}
		if h.Status != "ok" {
			out.Status = "degraded"
			out.JournalError = appendReason(out.JournalError, name+": "+h.Status)
		}
		out.Journal = out.Journal || h.Journal
		out.RecoveredRecords += h.RecoveredRecords
		out.InterruptedOperations += h.InterruptedOperations
		out.TornTail = out.TornTail || h.TornTail
		out.Replication = append(out.Replication, h.Replication...)
	}
	return out, nil
}

func (r *Router) Statz(ctx context.Context) (api.Statz, error) {
	out := api.Statz{Shard: "federated", Role: "router"}
	for _, name := range r.names {
		st, err := onShard[api.Statz](ctx, r, r.byName[name], "Statz", struct{}{})
		if err != nil {
			continue
		}
		out.OpsCreated += st.OpsCreated
		out.OpsOpen += st.OpsOpen
		out.PendingAcks += st.PendingAcks
		out.VehiclesConnected += st.VehiclesConnected
		out.PushesSent += st.PushesSent
		out.JournalRecords += st.JournalRecords
		out.JournalCommits += st.JournalCommits
		out.JournalSinceSnapshot += st.JournalSinceSnapshot
		out.JournalImageBytes += st.JournalImageBytes
		out.JournalSegmentBytes += st.JournalSegmentBytes
		for code, n := range st.OpsSettled {
			if out.OpsSettled == nil {
				out.OpsSettled = make(map[string]uint64)
			}
			out.OpsSettled[code] += n
		}
		if st.ReplLagBytes > out.ReplLagBytes {
			out.ReplLagBytes = st.ReplLagBytes
		}
		out.ReplAsyncCommits += st.ReplAsyncCommits
	}
	return out, nil
}

func appendReason(have, add string) string {
	if have == "" {
		return add
	}
	return have + "; " + add
}

// listAcrossShards walks the shards in name order under a composite
// "<shard>|<token>" cursor, one shard page per call, with the page's ids
// qualified; next points at the list type's NextPageToken.
func listAcrossShards[L any](ctx context.Context, r *Router, method string, page api.Page, next func(*L) *string) (L, error) {
	var zero L
	name := r.names[0]
	inner := ""
	if page.Token != "" {
		shard, rest, found := strings.Cut(page.Token, "|")
		if !found || r.byName[shard] == nil {
			return zero, api.Errorf(api.CodeInvalidArgument, "federation: malformed page token %q", page.Token)
		}
		name, inner = shard, rest
	}
	list, err := onShard[L](ctx, r, r.byName[name], method, api.Page{Size: page.Size, Token: inner})
	if err != nil {
		return zero, err
	}
	list = qualify(name, list).(L)
	token := next(&list)
	switch i := sort.SearchStrings(r.names, name); {
	case *token != "":
		*token = name + "|" + *token
	case i+1 < len(r.names):
		// This shard is exhausted: point the cursor at the next one.
		*token = r.names[i+1] + "|"
	}
	return list, nil
}
