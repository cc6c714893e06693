package server

import (
	"fmt"

	"dynautosar/internal/api"
	"dynautosar/internal/core"
	"dynautosar/internal/plugin"
)

// Compatibility checking (paper section 3.2.2): "the server checks
// whether the target vehicle meets the pre-requisites of the plug-in by
// comparing the vehicle configuration with the list of SW conf modules
// for the plug-in", then plug-in dependencies and conflicts.

// CompatReport collects the outcome of a compatibility check; a failed
// check carries the reasons presented to the user.
type CompatReport struct {
	OK      bool
	Conf    api.SWConf
	Reasons []string
}

func (r *CompatReport) fail(format string, args ...any) {
	r.OK = false
	r.Reasons = append(r.Reasons, fmt.Sprintf(format, args...))
}

// Error renders the reasons as one error, nil when compatible; the
// error carries the failed_precondition API code.
func (r CompatReport) Error() error {
	if r.OK {
		return nil
	}
	return api.Errorf(api.CodeFailedPrecondition, "server: incompatible: %v", r.Reasons)
}

// CheckCompatibility matches an app against a vehicle: a SW conf for the
// vehicle's model must exist, every deployment must fit the vehicle's
// SW-C quotas and virtual ports, and dependencies/conflicts must resolve
// against the already installed plug-ins.
func (s *Server) CheckCompatibility(app api.App, vr api.VehicleRecord) CompatReport {
	return s.checkCompatibility(app, vr, "")
}

// checkCompatibility is CheckCompatibility with the plug-ins of one
// installed app excluded from the installed population — the re-check a
// live upgrade runs: the replaced app's plug-ins vacate their quotas
// and conflict slots, so the new version is judged against the vehicle
// as it will be mid-swap, not as it is now.
func (s *Server) checkCompatibility(app api.App, vr api.VehicleRecord, exclude core.AppName) CompatReport {
	report := CompatReport{OK: true}
	conf, ok := app.ConfFor(vr.Conf.Model)
	if !ok {
		report.fail("no SW conf of app %s matches vehicle model %q", app.Name, vr.Conf.Model)
		return report
	}
	report.Conf = conf

	// Every binary must be deployed exactly once.
	for _, b := range app.Binaries {
		if _, ok := conf.Deployment(b.Manifest.Name); !ok {
			report.fail("plug-in %s has no deployment for model %q", b.Manifest.Name, vr.Conf.Model)
		}
	}

	var installed []api.InstalledPlugin
	for _, row := range s.store.InstalledApps(vr.ID) {
		if exclude != "" && row.App == exclude {
			continue
		}
		installed = append(installed, row.Plugins...)
	}
	installedNames := make(map[core.PluginName]bool, len(installed))
	for _, p := range installed {
		installedNames[p.Plugin] = true
	}
	appNames := make(map[core.PluginName]bool, len(app.Binaries))
	for _, b := range app.Binaries {
		appNames[b.Manifest.Name] = true
	}

	// Per-SW-C resource accounting.
	memUse := make(map[string]int)
	cntUse := make(map[string]int)
	for _, p := range installed {
		key := string(p.ECU) + "/" + string(p.SWC)
		cntUse[key]++
		if bin, ok := s.binaryOfInstalled(vr.ID, p.Plugin); ok {
			memUse[key] += bin.Manifest.MemoryWords
		}
	}

	for _, d := range conf.Deployments {
		bin, ok := app.Binary(d.Plugin)
		if !ok {
			report.fail("conf deploys %s which the app does not contain", d.Plugin)
			continue
		}
		swcConf, ok := vr.Conf.SWC(d.ECU, d.SWC)
		if !ok {
			report.fail("vehicle has no plug-in SW-C %s/%s", d.ECU, d.SWC)
			continue
		}
		key := string(d.ECU) + "/" + string(d.SWC)
		memUse[key] += bin.Manifest.MemoryWords
		cntUse[key]++
		if swcConf.MemoryQuota > 0 && memUse[key] > swcConf.MemoryQuota {
			report.fail("memory quota of %s/%s exceeded (%d > %d words)",
				d.ECU, d.SWC, memUse[key], swcConf.MemoryQuota)
		}
		if swcConf.MaxPlugins > 0 && cntUse[key] > swcConf.MaxPlugins {
			report.fail("plug-in limit of %s/%s exceeded (%d > %d)",
				d.ECU, d.SWC, cntUse[key], swcConf.MaxPlugins)
		}
		if installedNames[d.Plugin] {
			report.fail("plug-in %s is already installed on the vehicle", d.Plugin)
		}
		// Declared virtual targets must exist with matching direction.
		for _, conn := range d.Connections {
			if conn.Virtual == "" {
				continue
			}
			vp, ok := swcConf.VirtualPort(conn.Virtual)
			if !ok {
				report.fail("SW-C %s/%s exposes no virtual port %q", d.ECU, d.SWC, conn.Virtual)
				continue
			}
			spec, ok := portSpec(bin, conn.Port)
			if !ok {
				report.fail("plug-in %s declares no port %q", d.Plugin, conn.Port)
				continue
			}
			if vp.Type == core.TypeII {
				report.fail("port %s.%s: virtual target %q is a type II mux; use a remote connection",
					d.Plugin, conn.Port, conn.Virtual)
				continue
			}
			if vp.Direction != spec.Direction {
				report.fail("port %s.%s (%v) does not match virtual port %q (%v)",
					d.Plugin, conn.Port, spec.Direction, conn.Virtual, vp.Direction)
			}
		}
		// Dependencies: "certain pre-requisite plug-ins must be installed
		// in order for the new plug-ins to function."
		for _, req := range bin.Manifest.Requires {
			if !installedNames[req] && !appNames[req] {
				report.fail("plug-in %s requires %s, which is neither installed nor part of the app",
					d.Plugin, req)
			}
		}
		// Conflicts: "the deployment operation can be hindered by an
		// already installed plug-in being in conflict."
		for _, con := range bin.Manifest.Conflicts {
			if installedNames[con] {
				report.fail("plug-in %s conflicts with installed plug-in %s", d.Plugin, con)
			}
		}
	}

	// Remote connection endpoints must resolve inside the app or the
	// installed population.
	for _, d := range conf.Deployments {
		for _, conn := range d.Connections {
			if conn.RemotePlugin == "" {
				continue
			}
			if !appNames[conn.RemotePlugin] && !installedNames[conn.RemotePlugin] {
				report.fail("port %s.%s targets unknown plug-in %s",
					d.Plugin, conn.Port, conn.RemotePlugin)
			}
		}
	}
	return report
}

// binaryOfInstalled finds the stored binary of an installed plug-in by
// searching the APP database.
func (s *Server) binaryOfInstalled(vehicle core.VehicleID, name core.PluginName) (plugin.Binary, bool) {
	for _, row := range s.store.InstalledApps(vehicle) {
		for _, p := range row.Plugins {
			if p.Plugin != name {
				continue
			}
			if app, ok := s.store.App(row.App); ok {
				return app.Binary(name)
			}
		}
	}
	return plugin.Binary{}, false
}

// portSpec finds a declared port of a binary.
func portSpec(b plugin.Binary, port string) (core.PluginPortSpec, bool) {
	for _, p := range b.Manifest.Ports {
		if p.Name == port {
			return p, true
		}
	}
	return core.PluginPortSpec{}, false
}

// InstallOrder sorts the deployments so that required plug-ins install
// before their dependants (stable topological order). Two kinds of edges
// are honoured: manifest-level Requires, and same-SW-C remote
// connections — the PIRTE links peer ports directly at install time, so
// the target plug-in must already be present. It reports a
// failed_precondition error on cycles.
func InstallOrder(app api.App, conf api.SWConf) ([]api.Deployment, error) {
	byName := make(map[core.PluginName]api.Deployment, len(conf.Deployments))
	for _, d := range conf.Deployments {
		byName[d.Plugin] = d
	}
	// before[p] lists plug-ins that must install before p.
	before := make(map[core.PluginName][]core.PluginName)
	for _, d := range conf.Deployments {
		if bin, ok := app.Binary(d.Plugin); ok {
			for _, req := range bin.Manifest.Requires {
				if _, inApp := byName[req]; inApp {
					before[d.Plugin] = append(before[d.Plugin], req)
				}
			}
		}
		for _, conn := range d.Connections {
			if conn.RemotePlugin == "" {
				continue
			}
			target, inApp := byName[conn.RemotePlugin]
			if inApp && target.ECU == d.ECU && target.SWC == d.SWC {
				before[d.Plugin] = append(before[d.Plugin], conn.RemotePlugin)
			}
		}
	}
	state := make(map[core.PluginName]int, len(conf.Deployments)) // 0 new, 1 visiting, 2 done
	var order []api.Deployment
	var visit func(name core.PluginName) error
	visit = func(name core.PluginName) error {
		switch state[name] {
		case 1:
			return api.Errorf(api.CodeFailedPrecondition, "server: cyclic plug-in dependency through %s", name)
		case 2:
			return nil
		}
		state[name] = 1
		for _, req := range before[name] {
			if err := visit(req); err != nil {
				return err
			}
		}
		state[name] = 2
		order = append(order, byName[name])
		return nil
	}
	for _, d := range conf.Deployments {
		if err := visit(d.Plugin); err != nil {
			return nil, err
		}
	}
	return order, nil
}
