package server

import (
	"fmt"

	"dynautosar/internal/api"
	"dynautosar/internal/core"
	"dynautosar/internal/plugin"
	"dynautosar/internal/verify"
)

// The planners: every operation kind plans one vehicle as a
// verify.Plan — the untouched installed population (with contexts
// regenerated from the recorded port ids, so the verifier sees real
// links), the ordered per-plug-in steps, and the port reservations of
// concurrent in-flight upgrades — and that same plan, once it passed
// the static verifier, is what the engine executes: its steps are the
// push order. A rejection carries the stable "unsafe_plan" code and
// nothing is staged or pushed. (planUpgrade lives in upgrade.go.)

// vehiclePlan is one vehicle's operation as the engine consumes it: the
// verified plan plus the packaged payload of every step.
type vehiclePlan struct {
	*verify.Plan
	// pushes holds one frame per step, in step order, complete but for
	// its sequence number.
	pushes []push
	// back holds, per swap step, the package of the step's Old state:
	// the compensation path is the swaps reversed with these payloads.
	back [][]byte
	// oldRow completes the reuse key beside Plan.Conf: the donor
	// vehicle's only installed row, zero when it had none (see planFor).
	oldRow InstalledApp
}

// push is one frame of a plan and the app whose progress it counts
// towards.
type push struct {
	app core.AppName
	msg core.Message
}

// addStep appends a step and the frame that executes it: an install
// pushes MsgInstall, a removal MsgUninstall, a swap MsgUpgrade, to the
// placement the step's state names.
func (p *vehiclePlan) addStep(app core.AppName, st verify.Step, payload []byte) {
	at, typ := st.New, core.MsgInstall
	switch st.Kind {
	case verify.StepRemove:
		at, typ = st.Old, core.MsgUninstall
	case verify.StepSwap:
		typ = core.MsgUpgrade
	}
	p.Steps = append(p.Steps, st)
	p.pushes = append(p.pushes, push{app: app, msg: core.Message{
		Type: typ, Plugin: st.Plugin, ECU: at.ECU, SWC: at.SWC, Payload: payload,
	}})
}

// verified runs the static verifier over the finished plan: every
// intermediate configuration along the path must satisfy the invariant
// catalogue. The error message is the minimal counterexample path.
func (p *vehiclePlan) verified() (*vehiclePlan, error) {
	if err := verify.VerifyPlan(p.Plan); err != nil {
		return nil, api.Errorf(api.CodeUnsafePlan, "%v", err)
	}
	return p, nil
}

// row builds the InstalledAPP row the plan's New states describe. The
// PICs are copied per row, so rows of different vehicles never share a
// reused plan's memory.
func (p *vehiclePlan) row(vehicle core.VehicleID, app core.AppName) *InstalledApp {
	row := &InstalledApp{App: app, Vehicle: vehicle}
	for _, st := range p.Steps {
		row.Plugins = append(row.Plugins, InstalledPlugin{
			Plugin: st.Plugin, ECU: st.New.ECU, SWC: st.New.SWC,
			PIC: append(core.PIC(nil), st.New.PIC...),
		})
	}
	return row
}

// newPlan starts a plan against the vehicle as it stands, minus the app
// the plan itself touches (whose plug-ins travel as step states).
func (s *Server) newPlan(kind verify.PlanKind, vr VehicleRecord, touched core.AppName) *vehiclePlan {
	p := &vehiclePlan{Plan: &verify.Plan{
		Kind: kind, Vehicle: vr.ID, Conf: vr.Conf,
		Reserved: s.portReservations(vr.ID),
	}}
	for _, row := range s.store.InstalledApps(vr.ID) {
		if row.App != touched {
			for _, st := range s.rowStates(vr, row) {
				p.Installed = append(p.Installed, *st)
			}
		}
	}
	return p
}

// planDeploy runs the read-only part of a deployment: compatibility
// check, dependency-ordered planning, context generation and packaging.
func planDeploy(s *Server, t target, vr VehicleRecord) (*vehiclePlan, error) {
	app, ok := s.store.App(t.app)
	if !ok {
		return nil, api.Errorf(api.CodeNotFound, "server: unknown app %s", t.app)
	}
	// Compatibility and dependency checks; failures are presented to the
	// user as the reasons collected in the report.
	report := s.CheckCompatibility(app, vr)
	if err := report.Error(); err != nil {
		return nil, err
	}
	order, err := InstallOrder(app, report.Conf)
	if err != nil {
		return nil, err
	}
	contexts, err := s.GenerateContexts(app, vr, order)
	if err != nil {
		return nil, err
	}
	p := s.newPlan(verify.PlanDeploy, vr, "")
	for _, d := range order {
		raw, err := packagePlugin(app, d.Plugin, contexts[d.Plugin])
		if err != nil {
			return nil, err
		}
		p.addStep(t.app, verify.Step{
			Kind: verify.StepInstall, Plugin: d.Plugin,
			New: contextState(d.Plugin, d.ECU, d.SWC, app, contexts[d.Plugin]),
		}, raw)
	}
	return p.verified()
}

// planUninstall plans the removal of an installed row: plug-ins leave
// in reverse install order, and every intermediate state must keep the
// surviving population consistent.
func planUninstall(s *Server, t target, vr VehicleRecord) (*vehiclePlan, error) {
	row, ok := s.store.InstalledApp(t.vehicle, t.app)
	if !ok {
		return nil, api.Errorf(api.CodeNotFound, "server: app %s is not installed on %s", t.app, t.vehicle)
	}
	// Dependency supervision: other apps requiring these plug-ins block
	// the uninstall, and the user is told which ones.
	if dependants := s.uninstallDependants(t.vehicle, t.app, row); len(dependants) > 0 {
		return nil, api.Errorf(api.CodeFailedPrecondition,
			"server: cannot uninstall %s: dependent apps must be uninstalled first: %v", t.app, dependants)
	}
	p := s.newPlan(verify.PlanUninstall, vr, t.app)
	olds := s.rowStates(vr, row)
	for i := len(olds) - 1; i >= 0; i-- {
		p.addStep(t.app, verify.Step{Kind: verify.StepRemove, Plugin: olds[i].Plugin, Old: olds[i]}, nil)
	}
	return p.verified()
}

// planRestore plans the re-installation of every plug-in recorded on
// the replaced ECU, app by app in install order, packaged against the
// recorded port ids so the links of the surviving plug-ins still match.
func planRestore(s *Server, t target, vr VehicleRecord) (*vehiclePlan, error) {
	p := &vehiclePlan{Plan: &verify.Plan{
		Kind: verify.PlanDeploy, Vehicle: vr.ID, Conf: vr.Conf,
		Reserved: s.portReservations(vr.ID),
	}}
	for _, row := range s.store.InstalledApps(vr.ID) {
		app, contexts, regenErr := s.rowContexts(vr, row)
		for _, st := range rowStatesFrom(row, app, contexts) {
			if st.ECU != t.ecu {
				// A survivor's dependencies on the lost plug-ins are what
				// the restore repairs; they cannot hold mid-path.
				st.Requires = nil
				p.Installed = append(p.Installed, *st)
				continue
			}
			if regenErr != nil {
				return nil, regenErr
			}
			raw, err := packagePlugin(app, st.Plugin, contexts[st.Plugin])
			if err != nil {
				return nil, err
			}
			p.addStep(row.App, verify.Step{Kind: verify.StepInstall, Plugin: st.Plugin, New: st}, raw)
		}
	}
	return p.verified()
}

// packagePlugin marshals one plug-in's installation package: its binary
// with the given context.
func packagePlugin(app App, name core.PluginName, ctx *core.Context) ([]byte, error) {
	bin, ok := app.Binary(name)
	if !ok || ctx == nil {
		return nil, api.Errorf(api.CodeInternal, "server: packaging %s: app %s has no binary or context for it", name, app.Name)
	}
	raw, err := plugin.Package{Binary: bin, Context: *ctx}.MarshalBinary()
	if err != nil {
		return nil, api.Errorf(api.CodeInternal, "server: packaging %s: %v", name, err)
	}
	return raw, nil
}

// contextState builds one verifier plug-in state from a generated
// context and the app's manifest.
func contextState(name core.PluginName, ecu core.ECUID, swc core.SWCID, app App, ctx *core.Context) *verify.PluginState {
	st := &verify.PluginState{Plugin: name, ECU: ecu, SWC: swc, PIC: ctx.PIC, PLC: ctx.PLC}
	if bin, ok := app.Binary(name); ok {
		st.Ports = bin.Manifest.Ports
		st.Requires = bin.Manifest.Requires
	}
	return st
}

// rowContexts regenerates the contexts an installed row runs with: its
// app's contexts generated with the recorded port ids forced, so PLC
// remote ids match what the other plug-ins on the vehicle link to.
func (s *Server) rowContexts(vr VehicleRecord, row InstalledApp) (App, generatedContexts, error) {
	app, ok := s.store.App(row.App)
	if !ok {
		return App{}, nil, api.Errorf(api.CodeNotFound, "server: unknown app %s", row.App)
	}
	conf, ok := app.ConfFor(vr.Conf.Model)
	if !ok {
		return app, nil, api.Errorf(api.CodeFailedPrecondition,
			"server: no SW conf of %s matches model %q", row.App, vr.Conf.Model)
	}
	order, err := InstallOrder(app, conf)
	if err != nil {
		return app, nil, err
	}
	forced := make(map[core.PluginName]core.PIC, len(row.Plugins))
	for _, p := range row.Plugins {
		forced[p.Plugin] = p.PIC
	}
	contexts, err := s.generateContexts(app, vr, order, forced)
	return app, contexts, err
}

// rowStatesFrom builds the verifier states of one installed row from
// its record, its app's manifests and its regenerated contexts. A
// plug-in without a context keeps a PIC-only state: its port-id claims
// hold, its link checks skip.
func rowStatesFrom(row InstalledApp, app App, contexts generatedContexts) []*verify.PluginState {
	out := make([]*verify.PluginState, 0, len(row.Plugins))
	for _, p := range row.Plugins {
		st := &verify.PluginState{
			Plugin: p.Plugin, ECU: p.ECU, SWC: p.SWC,
			PIC: append(core.PIC(nil), p.PIC...),
		}
		if bin, ok := app.Binary(p.Plugin); ok {
			st.Ports = bin.Manifest.Ports
			st.Requires = bin.Manifest.Requires
		}
		if ctx := contexts[p.Plugin]; ctx != nil {
			st.PLC = ctx.PLC
		}
		out = append(out, st)
	}
	return out
}

// rowStates rebuilds the verifier states of one installed row; a row
// whose app, conf or regeneration is unavailable falls back to PIC-only
// states.
func (s *Server) rowStates(vr VehicleRecord, row InstalledApp) []*verify.PluginState {
	app, contexts, _ := s.rowContexts(vr, row)
	return rowStatesFrom(row, app, contexts)
}

// portReservations converts the planned rows of in-flight live
// upgrades into the verifier's reservation shape.
func (s *Server) portReservations(vehicle core.VehicleID) []verify.PortReservation {
	var out []verify.PortReservation
	for _, row := range s.store.ReservedUpgradeRows(vehicle) {
		for _, p := range row.Plugins {
			out = append(out, verify.PortReservation{
				ECU: p.ECU, SWC: p.SWC, Owner: p.Plugin, IDs: p.PIC.IDs(),
			})
		}
	}
	return out
}

// uninstallDependants lists the installed apps whose plug-ins declare a
// manifest dependency on a plug-in of the row being removed.
func (s *Server) uninstallDependants(vehicleID core.VehicleID, appName core.AppName, row InstalledApp) []string {
	removing := make(map[core.PluginName]bool, len(row.Plugins))
	for _, p := range row.Plugins {
		removing[p.Plugin] = true
	}
	var dependants []string
	for _, other := range s.store.InstalledApps(vehicleID) {
		if other.App == appName {
			continue
		}
		app, ok := s.store.App(other.App)
		if !ok {
			continue
		}
		for _, b := range app.Binaries {
			for _, req := range b.Manifest.Requires {
				if removing[req] {
					dependants = append(dependants,
						fmt.Sprintf("%s (plug-in %s requires %s)", other.App, b.Manifest.Name, req))
				}
			}
		}
	}
	return dependants
}

// VerifyOperation dry-runs one operation through the static plan
// verifier: the plan is computed by the planner the live pipeline uses,
// but nothing is claimed, staged or pushed. Prerequisite failures
// (unknown entities, ownership, duplicates) surface as hard errors;
// planning and verification rejections travel inside the report, so
// callers can tell "unsafe plan" from "request failed". The reported
// steps are the plan's — what a live run would put on the wire, in
// order.
func (s *Server) VerifyOperation(user core.UserID, vehicleID core.VehicleID, kind api.OperationKind, appName, toApp core.AppName) (api.VerifyReport, error) {
	return s.verifyTarget(kind, target{user: user, vehicle: vehicleID, app: appName, toApp: toApp})
}

func (s *Server) verifyTarget(kind api.OperationKind, t target) (api.VerifyReport, error) {
	k := kindOf(kind)
	if k == nil || k.kind != kind || (k == restoreKind && t.ecu == "") {
		return api.VerifyReport{}, api.Errorf(api.CodeInvalidArgument,
			"server: operation kind %q is not verifiable (want deploy, uninstall, upgrade, or restore with an ECU)", kind)
	}
	vr, err := s.precheck(k, t, "")
	if err != nil {
		return api.VerifyReport{}, err
	}
	p, err := k.plan(s, t, vr)
	if err != nil {
		return api.VerifyReport{Error: api.AsError(err)}, nil
	}
	report := api.VerifyReport{OK: true}
	for _, st := range p.Steps {
		report.Steps = append(report.Steps, st.String())
	}
	return report, nil
}
