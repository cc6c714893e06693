package server

import (
	"runtime"
	"slices"
	"sync"

	"dynautosar/internal/api"
	"dynautosar/internal/core"
)

// The fleet-scale batch deployment engine: POST /v1/deploy:batch (and
// uninstall:batch) fan one request out over an explicit vehicle list or
// a fleet selector. The batch is a first-class API object — one parent
// operation with a child operation per vehicle — instead of a
// client-side loop, so partial failure is reported per vehicle and the
// fan-out runs server-side on a bounded worker pool. Vehicles of the
// same configuration share one deployment plan (package-once,
// push-many); see deployPlan in server.go.

// batchWorkers bounds the per-batch worker pool so a 100k-vehicle batch
// never runs 100k pipelines at once; a var so tests and benchmarks can
// pin it.
var batchWorkers = max(16, 4*runtime.NumCPU())

// resolveFleet turns a batch request's explicit vehicle list or fleet
// selector (exactly one of the two) into a deduplicated target list.
func (s *Server) resolveFleet(user core.UserID, vehicles []core.VehicleID, sel *api.FleetSelector) ([]core.VehicleID, error) {
	switch {
	case len(vehicles) > 0 && sel != nil:
		return nil, api.Errorf(api.CodeInvalidArgument, "server: batch request names both vehicles and a selector")
	case len(vehicles) > 0:
		seen := make(map[core.VehicleID]bool, len(vehicles))
		out := make([]core.VehicleID, 0, len(vehicles))
		for _, v := range vehicles {
			if v == "" {
				return nil, api.Errorf(api.CodeInvalidArgument, "server: batch request with empty vehicle id")
			}
			if seen[v] {
				continue
			}
			seen[v] = true
			out = append(out, v)
		}
		return out, nil
	case sel != nil:
		owner := sel.Owner
		if owner == "" {
			owner = user
		}
		if owner != user {
			return nil, api.Errorf(api.CodePermissionDenied,
				"server: fleet selector names user %q, caller is %q", sel.Owner, user)
		}
		fleet := s.store.SelectVehicles(owner, sel.Model)
		if len(fleet) == 0 {
			return nil, api.Errorf(api.CodeFailedPrecondition, "server: fleet selector matches no vehicles")
		}
		return fleet, nil
	default:
		return nil, api.Errorf(api.CodeInvalidArgument, "server: batch request needs vehicles or a selector")
	}
}

// BatchDeploy starts a fleet-wide deployment: it resolves the fleet
// synchronously, returns the parent operation immediately and runs the
// per-vehicle pipelines on the worker pool. Per-vehicle problems
// (offline, incompatible, already installed, foreign owner) fail that
// vehicle's child without aborting the rest.
func (s *Server) BatchDeploy(req api.BatchDeployRequest) (api.Operation, error) {
	return s.runIdempotent(req.IdempotencyKey, func(key string) (api.Operation, error) {
		if !s.store.HasApp(req.App) {
			return api.Operation{}, api.Errorf(api.CodeNotFound, "server: unknown app %s", req.App)
		}
		fleet, err := s.resolveFleet(req.User, req.Vehicles, req.Selector)
		if err != nil {
			return api.Operation{}, err
		}
		parentID, children := s.newBatchOperation(api.OpBatchDeploy, api.OpDeploy, req.User, req.App, "", fleet, key)
		go func() {
			cache := &planCache{}
			// inflight bounds the per-batch commit-wait/push goroutines the
			// staged deploys hand off to, so a fleet-scale batch keeps a few
			// hundred vehicles in the commit/push pipeline instead of one
			// goroutine (pinning its plan and pending state) per vehicle.
			inflight := make(chan struct{}, batchInflight)
			s.runBatch(children, func(c batchChild) {
				s.deployChild(c, req.User, req.App, cache, inflight)
			})
			hits, misses := cache.stats()
			s.logf("server: batch %s over %d vehicles: plan cache %d hits / %d misses", parentID, len(fleet), hits, misses)
		}()
		return s.operationSnapshot(parentID), nil
	})
}

// batchInflight bounds, per batch, how many staged deploys may sit in
// the commit-wait/push pipeline at once; a var so tests can shrink it.
var batchInflight = 512

// deployChild launches one batch child. The worker runs only the CPU
// half (plan + check-and-record); with a journal attached, the
// commit-wait and the pushes move to a per-vehicle goroutine, so the
// bounded worker pool never parks in a group commit — the pool keeps
// planning at CPU speed while records ride the shared fsync and pushes
// fire as their commits land. The inflight semaphore applies
// backpressure: once batchInflight children are between stage and
// push-complete, the staging worker blocks, so a 100k-vehicle batch
// never holds 100k plans and goroutines live at once. Operation
// accounting is untouched: the child reaches finishLaunch exactly
// once, after its pushes (or its failure).
func (s *Server) deployChild(c batchChild, user core.UserID, appName core.AppName, cache *planCache, inflight chan struct{}) {
	plan, ticket, err := s.stageDeploy(user, c.vehicle, appName, cache)
	if err != nil {
		s.finishLaunch(c.opID, err)
		return
	}
	if s.jn == nil {
		// Memory-only: the zero ticket is already resolved.
		s.finishLaunch(c.opID, s.pushPlan(c.opID, c.vehicle, appName, plan))
		return
	}
	inflight <- struct{}{}
	go func() {
		defer func() { <-inflight }()
		if err := s.awaitInstallDurable(ticket, c.vehicle, appName); err != nil {
			s.finishLaunch(c.opID, err)
			return
		}
		s.finishLaunch(c.opID, s.pushPlan(c.opID, c.vehicle, appName, plan))
	}()
}

// BatchUninstall starts a fleet-wide uninstallation with the same
// parent/child semantics; each child runs the full uninstall pipeline
// (dependency supervision, per-vehicle claim, reverse-order pushes).
func (s *Server) BatchUninstall(req api.BatchUninstallRequest) (api.Operation, error) {
	return s.runIdempotent(req.IdempotencyKey, func(key string) (api.Operation, error) {
		if !s.store.HasApp(req.App) {
			return api.Operation{}, api.Errorf(api.CodeNotFound, "server: unknown app %s", req.App)
		}
		fleet, err := s.resolveFleet(req.User, req.Vehicles, req.Selector)
		if err != nil {
			return api.Operation{}, err
		}
		parentID, children := s.newBatchOperation(api.OpBatchUninstall, api.OpUninstall, req.User, req.App, "", fleet, key)
		go func() {
			s.runBatch(children, func(c batchChild) {
				s.finishLaunch(c.opID, s.uninstall(c.opID, req.User, c.vehicle, req.App))
			})
		}()
		return s.operationSnapshot(parentID), nil
	})
}

// runBatch drives the per-vehicle workers over a bounded pool.
func (s *Server) runBatch(children []batchChild, worker func(batchChild)) {
	workers := batchWorkers
	if workers > len(children) {
		workers = len(children)
	}
	next := make(chan batchChild)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for c := range next {
				worker(c)
			}
		}()
	}
	for _, c := range children {
		next <- c
	}
	close(next)
	wg.Wait()
}

// planCache shares deployment plans — and the one deep copy of the app
// record — across the vehicles of one batch. Fleets have few
// configuration shapes (typically one per model), so a linear scan
// over the cached plans is cheaper than fingerprinting.
type planCache struct {
	mu    sync.Mutex
	app   *App
	plans []*deployPlan
	// hits and misses instrument the package-once/push-many reuse.
	hits, misses int
	// upgrades caches live-upgrade transition plans the same way; a
	// plan transfers between vehicles of equal conf AND structurally
	// equal old rows (see upgrade.go).
	upgrades         []*upgradePlan
	upHits, upMisses int
}

// appRecord fetches the batch's app once and hands the same record to
// every planning worker (read-only use).
func (c *planCache) appRecord(st *Store, name core.AppName) (App, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.app == nil {
		a, ok := st.App(name)
		if !ok {
			return App{}, false
		}
		c.app = &a
	}
	return *c.app, true
}

// lookup returns a cached plan applicable to a fresh vehicle with the
// given configuration, nil when none fits.
func (c *planCache) lookup(conf core.VehicleConf) *deployPlan {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, p := range c.plans {
		if p.fresh && confsEqual(p.conf, conf) {
			c.hits++
			return p
		}
	}
	c.misses++
	return nil
}

// add caches a plan computed against a fresh vehicle.
func (c *planCache) add(p *deployPlan) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.plans = append(c.plans, p)
}

// stats returns the reuse counters for the batch-completion log line.
func (c *planCache) stats() (hits, misses int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}

// confsEqual compares two vehicle configurations structurally,
// ignoring the vehicle id: equal confs yield identical compatibility
// reports, contexts and packages for a fresh vehicle.
func confsEqual(a, b core.VehicleConf) bool {
	if a.Model != b.Model || len(a.SWCs) != len(b.SWCs) {
		return false
	}
	for i := range a.SWCs {
		x, y := &a.SWCs[i], &b.SWCs[i]
		if x.ECU != y.ECU || x.SWC != y.SWC || x.MemoryQuota != y.MemoryQuota ||
			x.MaxPlugins != y.MaxPlugins || x.ECM != y.ECM ||
			!slices.Equal(x.VirtualPorts, y.VirtualPorts) {
			return false
		}
	}
	return true
}
