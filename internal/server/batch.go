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
// fan-out runs server-side on a bounded worker pool (runChildren in
// engine.go). Vehicles in the same state share one plan (package-once,
// push-many); see planFor.

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

// BatchDeploy starts a fleet-wide deployment (see launchBatch).
func (s *Server) BatchDeploy(req api.BatchDeployRequest) (api.Operation, error) {
	return s.launchBatch(deployKind, target{user: req.User, app: req.App}, req.Vehicles, req.Selector, req.IdempotencyKey)
}

// BatchUninstall starts a fleet-wide uninstallation with the same
// parent/child semantics; each child runs the full uninstall pipeline
// (dependency supervision, per-vehicle claim, reverse-order pushes).
func (s *Server) BatchUninstall(req api.BatchUninstallRequest) (api.Operation, error) {
	return s.launchBatch(uninstallKind, target{user: req.User, app: req.App}, req.Vehicles, req.Selector, req.IdempotencyKey)
}

// runBatch drives the per-vehicle workers over a bounded pool.
func (s *Server) runBatch(children []batchChild, worker func(batchChild)) {
	workers := min(batchWorkers, len(children))
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

// planCache shares plans across the vehicles of one batch
// (package-once, push-many). Fleets have few configuration shapes
// (typically one per model), so a linear scan over the cached plans is
// cheaper than fingerprinting.
type planCache struct {
	mu    sync.Mutex
	plans []*vehiclePlan
	// hits and misses instrument the reuse.
	hits, misses int
}

// lookup returns a cached plan applicable to a vehicle with this
// configuration whose only installed row is oldRow (zero: none), nil
// when none fits: equal confs and structurally equal old rows — which
// batch-deployed fleets have by construction — yield identical
// compatibility reports, contexts and packages.
func (c *planCache) lookup(conf core.VehicleConf, oldRow api.InstalledApp) *vehiclePlan {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, p := range c.plans {
		if confsEqual(p.Conf, conf) && rowsEquivalent(p.oldRow, oldRow) {
			c.hits++
			return p
		}
	}
	c.misses++
	return nil
}

// add caches a computed plan.
func (c *planCache) add(p *vehiclePlan) {
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

// rowsEquivalent reports whether two installed rows describe the same
// placement and port-id assignment — the condition for one plan's
// recorded (and forced) PICs to apply to another vehicle.
func rowsEquivalent(a, b api.InstalledApp) bool {
	if a.App != b.App || len(a.Plugins) != len(b.Plugins) {
		return false
	}
	for i := range a.Plugins {
		x, y := &a.Plugins[i], &b.Plugins[i]
		if x.Plugin != y.Plugin || x.ECU != y.ECU || x.SWC != y.SWC || !slices.Equal(x.PIC, y.PIC) {
			return false
		}
	}
	return true
}
