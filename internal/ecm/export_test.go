package ecm

import "dynautosar/internal/core"

// ECCRoute is one ECC record in force, for the external test package.
type ECCRoute struct {
	Plugin  core.PluginName
	ECU     core.ECUID
	Entries core.ECC
}

// ECCRoutes lists the ECC records in force.
func (e *ECM) ECCRoutes() []ECCRoute {
	out := make([]ECCRoute, 0, len(e.eccReg))
	for _, rec := range e.eccReg {
		out = append(out, ECCRoute{rec.plugin, rec.ecu, rec.entries})
	}
	return out
}
