package server

import (
	"fmt"

	"dynautosar/internal/api"
	"dynautosar/internal/core"
)

// Context generation (paper section 3.2.2): "the server creates a PIC
// context by assigning SW-C-scope unique ids to the plug-in ports, using
// the knowledge about the already installed plug-ins. Next, the port
// connection information, found in SW conf, is translated into a PLC
// context. ... If any plug-in is designed to communicate externally, a
// package with ECC information is prepared."

// generatedContexts maps each deployed plug-in to its generated context.
type generatedContexts map[core.PluginName]*core.Context

// GenerateContexts builds the PIC, PLC and ECC for every deployment of
// the ordered plan against a vehicle.
func (s *Server) GenerateContexts(app api.App, vr api.VehicleRecord, order []api.Deployment) (generatedContexts, error) {
	return s.generateContexts(app, vr, order, nil)
}

// generateContexts is GenerateContexts with per-plug-in forced port-id
// assignments: a port whose name appears in forced[plugin] receives
// that id instead of a fresh one. Live upgrades force the old version's
// recorded ids so same-named ports keep their SW-C-scope identity —
// links from other plug-ins, ECC routes and in-flight traffic survive
// the swap — while genuinely new ports still allocate fresh ids.
func (s *Server) generateContexts(app api.App, vr api.VehicleRecord, order []api.Deployment, forced map[core.PluginName]core.PIC) (generatedContexts, error) {
	out := make(generatedContexts, len(order))

	// Pass 1: PICs. Ids are unique within each SW-C, skipping ids held by
	// already installed plug-ins.
	nextID := make(map[string]core.PluginPortID)
	used := make(map[string]map[core.PluginPortID]bool)
	for _, d := range order {
		key := string(d.ECU) + "/" + string(d.SWC)
		if used[key] == nil {
			used[key] = s.store.UsedPortIDs(vr.ID, d.ECU, d.SWC)
		}
		bin, ok := app.Binary(d.Plugin)
		if !ok {
			return nil, fmt.Errorf("server: no binary for deployment %s", d.Plugin)
		}
		var pic core.PIC
		for _, spec := range bin.Manifest.Ports {
			if f := forced[d.Plugin]; f != nil {
				if id, ok := f.Lookup(spec.Name); ok {
					used[key][id] = true
					pic = append(pic, core.PICEntry{Name: spec.Name, ID: id})
					continue
				}
			}
			id := nextID[key]
			for used[key][id] {
				id++
			}
			used[key][id] = true
			nextID[key] = id + 1
			pic = append(pic, core.PICEntry{Name: spec.Name, ID: id})
		}
		out[d.Plugin] = &core.Context{PIC: pic}
	}

	// lookupPIC resolves a plug-in port to its id, in this app first and
	// the installed population second.
	lookupPIC := func(pluginName core.PluginName, port string) (core.PluginPortID, core.ECUID, core.SWCID, error) {
		if ctx, ok := out[pluginName]; ok {
			if id, ok := ctx.PIC.Lookup(port); ok {
				for _, d := range order {
					if d.Plugin == pluginName {
						return id, d.ECU, d.SWC, nil
					}
				}
			}
			return 0, "", "", fmt.Errorf("server: plug-in %s has no port %q", pluginName, port)
		}
		for _, p := range s.store.InstalledPlugins(vr.ID) {
			if p.Plugin == pluginName {
				if id, ok := p.PIC.Lookup(port); ok {
					return id, p.ECU, p.SWC, nil
				}
				return 0, "", "", fmt.Errorf("server: installed plug-in %s has no port %q", pluginName, port)
			}
		}
		return 0, "", "", fmt.Errorf("server: unknown plug-in %s", pluginName)
	}

	// Pass 2: PLCs and ECCs.
	for _, d := range order {
		ctx := out[d.Plugin]
		swcConf, ok := vr.Conf.SWC(d.ECU, d.SWC)
		if !ok {
			return nil, fmt.Errorf("server: vehicle %s has no SW-C %s/%s", vr.ID, d.ECU, d.SWC)
		}
		connected := make(map[core.PluginPortID]bool)
		for _, conn := range d.Connections {
			srcID, ok := ctx.PIC.Lookup(conn.Port)
			if !ok {
				return nil, fmt.Errorf("server: %s has no port %q", d.Plugin, conn.Port)
			}
			switch {
			case conn.Virtual != "":
				vp, ok := swcConf.VirtualPort(conn.Virtual)
				if !ok {
					return nil, fmt.Errorf("server: SW-C %s/%s has no virtual port %q",
						d.ECU, d.SWC, conn.Virtual)
				}
				ctx.PLC = append(ctx.PLC, core.PLCEntry{
					Kind: core.LinkVirtual, Plugin: srcID, Virtual: vp.ID,
				})
				connected[srcID] = true

			case conn.RemotePlugin != "":
				dstID, dstECU, dstSWC, err := lookupPIC(conn.RemotePlugin, conn.RemotePort)
				if err != nil {
					return nil, err
				}
				if dstECU == d.ECU && dstSWC == d.SWC {
					// Same SW-C: linked directly in PIRTE.
					ctx.PLC = append(ctx.PLC, core.PLCEntry{
						Kind: core.LinkPeer, Plugin: srcID, Peer: dstID,
					})
					connected[srcID] = true
					continue
				}
				// Cross-SW-C: through the type II mux with the recipient
				// id attached. "The port ids of the recipient side must
				// be included into the context that is communicated to
				// the sending side SW-C."
				mux, err := muxPort(swcConf, core.Provided)
				if err != nil {
					return nil, fmt.Errorf("server: %s/%s: %v", d.ECU, d.SWC, err)
				}
				ctx.PLC = append(ctx.PLC, core.PLCEntry{
					Kind: core.LinkVirtualRemote, Plugin: srcID, Virtual: mux.ID, Remote: dstID,
				})
				connected[srcID] = true
				// Receiving side association (the paper's P0-V3 posts),
				// only generatable for plug-ins deployed in this pass.
				if dstCtx, ok := out[conn.RemotePlugin]; ok {
					dstConf, ok := vr.Conf.SWC(dstECU, dstSWC)
					if !ok {
						return nil, fmt.Errorf("server: vehicle %s has no SW-C %s/%s", vr.ID, dstECU, dstSWC)
					}
					muxIn, err := muxPort(dstConf, core.Required)
					if err != nil {
						return nil, fmt.Errorf("server: %s/%s: %v", dstECU, dstSWC, err)
					}
					if _, dup := dstCtx.PLC.Lookup(dstID); !dup {
						dstCtx.PLC = append(dstCtx.PLC, core.PLCEntry{
							Kind: core.LinkVirtual, Plugin: dstID, Virtual: muxIn.ID,
						})
					}
				}

			case conn.External != nil:
				ctx.ECC = append(ctx.ECC, core.ECCEntry{
					Endpoint:  conn.External.Endpoint,
					ECU:       d.ECU,
					MessageID: conn.External.MessageID,
					Port:      srcID,
				})
				// External ports are PIRTE-direct.
				ctx.PLC = append(ctx.PLC, core.PLCEntry{Kind: core.LinkNone, Plugin: srcID})
				connected[srcID] = true
			}
		}
		// Unconnected ports become explicit PIRTE-direct posts, mirroring
		// the paper's "{P0-, P1-, ...}" notation.
		for _, e := range ctx.PIC {
			if !connected[e.ID] {
				if _, has := ctx.PLC.Lookup(e.ID); !has {
					ctx.PLC = append(ctx.PLC, core.PLCEntry{Kind: core.LinkNone, Plugin: e.ID})
				}
			}
		}
	}

	// Normalise PLC order by plug-in port id for reproducible output.
	for _, ctx := range out {
		sortPLC(ctx.PLC)
		if err := ctx.Validate(); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// muxPort finds the type II virtual port of the SW-C with the given SW-C
// port direction.
func muxPort(conf core.SWCConf, dir core.Direction) (core.VirtualPortSpec, error) {
	for _, vp := range conf.VirtualPorts {
		if vp.Type == core.TypeII && vp.Direction == dir {
			return vp, nil
		}
	}
	return core.VirtualPortSpec{}, fmt.Errorf("no %v type II virtual port", dir)
}

// sortPLC orders posts by plug-in port id (insertion sort; PLCs are tiny).
func sortPLC(plc core.PLC) {
	for i := 1; i < len(plc); i++ {
		for j := i; j > 0 && plc[j-1].Plugin > plc[j].Plugin; j-- {
			plc[j-1], plc[j] = plc[j], plc[j-1]
		}
	}
}
