package pirte

import (
	"fmt"

	"dynautosar/internal/core"
	"dynautosar/internal/plugin"
	"dynautosar/internal/sim"
	"dynautosar/internal/vm"
)

// Live in-place upgrade of an installed plug-in: the hot-swap engine of
// the dynamic component model. Where the paper (section 5) settles for
// stop/uninstall/install-fresh — dropping state and leaving the vehicle
// without the function mid-swap — this file keeps the plug-in's slot
// live through a five-phase transaction:
//
//	quiesce  -> inbound port traffic is buffered (delayed, not dropped)
//	snapshot -> the old version's globals are exported as plugin.State
//	swap     -> the new binary binds the old port ids, init runs, the
//	            state prefix is transferred
//	replay   -> the buffered traffic is delivered to the new version
//	probe    -> the new version runs on probation; a fault within the
//	            window rolls everything back to the old version (state,
//	            ports, NvM) and re-delivers the traffic the doomed
//	            version consumed, so no message is lost either way
//
// The done callback reports the outcome exactly once: nil on commit, a
// "rollback: "-prefixed error on rollback — the stable detail the
// server surfaces on the upgrade operation.

// Default windows of the upgrade transaction, used when the Config
// leaves them zero.
const (
	// DefaultUpgradeQuiesce models the time to stage the new binary
	// before the swap; traffic arriving within it is buffered.
	DefaultUpgradeQuiesce = 1 * sim.Millisecond
	// DefaultUpgradeProbe is the health-probe window after the swap; a
	// trap of the new version within it triggers rollback.
	DefaultUpgradeProbe = 20 * sim.Millisecond
)

// upgradePhase tracks where an in-flight upgrade transaction stands.
type upgradePhase int

const (
	// phaseQuiesce: the old version is halted, traffic buffers.
	phaseQuiesce upgradePhase = iota + 1
	// phaseProbe: the new version runs on probation.
	phaseProbe
)

// portValue is one buffered or probation-logged port message.
type portValue struct {
	port  core.PluginPortID
	value int64
}

// upgradeState is the in-flight upgrade transaction of one plug-in.
type upgradeState struct {
	phase  upgradePhase
	newPkg plugin.Package
	done   func(error)

	// The old version's full identity, kept until the probe passes so a
	// rollback can restore it bit-for-bit.
	oldPkg       plugin.Package
	oldProg      *vm.Program
	oldState     plugin.State
	oldIndexToID []core.PluginPortID
	oldLinks     []core.PLCEntry
	// oldDirect snapshots the plug-in's PIRTE-direct last-value latches:
	// releasing the ports wipes them, but they are part of the observable
	// state and carry over to whichever version survives.
	oldDirect map[core.PluginPortID]int64

	// buffered holds quiesce-window traffic awaiting replay; replay
	// logs probation traffic for re-delivery on rollback.
	buffered []portValue
	replay   []portValue

	swapEv  sim.EventID
	probeEv sim.EventID
}

// Upgrade starts a live upgrade of the named installed plug-in to the
// replacement package. Structural problems (unknown plug-in, an upgrade
// already in flight, an invalid package, a package naming a different
// plug-in) are rejected synchronously; otherwise the plug-in quiesces
// immediately and done fires once — nil after the new version survived
// its health probe, a "rollback: "-prefixed error after a rollback to
// the old version.
func (p *PIRTE) Upgrade(name core.PluginName, pkg plugin.Package, done func(error)) error {
	ip, ok := p.plugins[name]
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownPlugin, name)
	}
	if ip.upgrade != nil {
		return fmt.Errorf("%w: %s", ErrUpgradeInProgress, name)
	}
	if ip.state != StateRunning {
		// A stopped or faulted plug-in was halted deliberately; a hot
		// swap (whose rollback restores a *running* old version) would
		// silently restart it. Operators start it first, then upgrade.
		return fmt.Errorf("pirte: cannot upgrade %s while %s", name, ip.state)
	}
	if err := pkg.Validate(); err != nil {
		return err
	}
	if pkg.Binary.Manifest.Name != name {
		return fmt.Errorf("pirte: upgrade package for %s names plug-in %s", name, pkg.Binary.Manifest.Name)
	}
	if done == nil {
		done = func(error) {}
	}
	up := &upgradeState{
		phase:        phaseQuiesce,
		newPkg:       pkg,
		done:         done,
		oldPkg:       ip.Pkg,
		oldProg:      ip.prog,
		oldState:     plugin.CaptureState(ip.Pkg.Binary.Manifest, ip.inst.ExportGlobals()),
		oldIndexToID: ip.indexToID,
		oldLinks:     ip.links,
		oldDirect:    make(map[core.PluginPortID]int64),
	}
	for _, id := range ip.indexToID {
		if r := p.route(id); r != nil && r.hasDirect {
			up.oldDirect[id] = r.direct
		}
	}
	ip.upgrade = up
	ip.state = StateUpgrading
	ip.inst.Stop()
	p.clearTimers(ip)
	quiesce := p.cfg.UpgradeQuiesce
	if quiesce <= 0 {
		quiesce = DefaultUpgradeQuiesce
	}
	up.swapEv = p.eng.After(quiesce, func() { p.swapUpgrade(ip) })
	p.logf("pirte %s: upgrading %s %s -> %s (quiesce %v)", p.cfg.SWC, name,
		up.oldPkg.Binary.Manifest.Version, pkg.Binary.Manifest.Version, quiesce)
	return nil
}

// Upgrading reports whether the named plug-in has an upgrade in flight.
func (p *PIRTE) Upgrading(name core.PluginName) bool {
	ip, ok := p.plugins[name]
	return ok && ip.upgrade != nil
}

// swapUpgrade performs the swap at the end of the quiesce window:
// rebind ports, fresh VM instance, init, state transfer, replay, then
// the probation window opens.
func (p *PIRTE) swapUpgrade(ip *Installed) {
	up := ip.upgrade
	if up == nil || up.phase != phaseQuiesce {
		return
	}
	if err := p.applyUpgradePackage(ip, up.newPkg); err != nil {
		p.rollbackUpgrade(ip, err)
		return
	}
	// Init first (the new version arms its timers and defaults), then
	// transfer the exported state prefix so carried-over counters win
	// over init-time defaults.
	ip.state = StateRunning
	if err := ip.inst.Init(); err != nil {
		p.rollbackUpgrade(ip, fmt.Errorf("init: %v", err))
		return
	}
	if _, err := up.oldState.RestoreInto(ip.inst); err != nil {
		p.rollbackUpgrade(ip, fmt.Errorf("state transfer: %v", err))
		return
	}
	up.phase = phaseProbe
	// Replay the quiesce-window traffic into the new version, in arrival
	// order, through the normal execute path: probe logging applies, and
	// a trap during replay rolls back like any probation fault. Items
	// are popped before execution so a mid-replay rollback still holds
	// the unplayed tail and re-delivers it to the old version.
	replayed := 0
	for len(up.buffered) > 0 {
		pv := up.buffered[0]
		up.buffered = up.buffered[1:]
		p.execute(event{kind: 1, pl: ip, port: pv.port, value: pv.value})
		replayed++
		if ip.upgrade != up {
			// The replayed message trapped the new version and the
			// rollback already re-delivered everything; stop.
			return
		}
	}
	probe := p.cfg.UpgradeProbe
	if probe <= 0 {
		probe = DefaultUpgradeProbe
	}
	up.probeEv = p.eng.After(probe, func() { p.commitUpgrade(ip) })
	p.logf("pirte %s: swapped %s to %s, probing for %v (%d replayed)",
		p.cfg.SWC, ip.Name, ip.Pkg.Binary.Manifest.Version, probe, replayed)
}

// applyUpgradePackage rebinds the plug-in's slot to the new package:
// quota re-check, old port ids released, new context bound (reusing the
// old ids where the server kept them stable), fresh VM instance. On
// error the slot is left unbound; rollbackUpgrade restores it.
func (p *PIRTE) applyUpgradePackage(ip *Installed, pkg plugin.Package) error {
	prog, err := pkg.Binary.Decode()
	if err != nil {
		return err
	}
	if p.cfg.MemoryQuota > 0 && p.memoryInUse()-int(ip.prog.Globals)+int(prog.Globals) > p.cfg.MemoryQuota {
		return fmt.Errorf("%w: memory quota %d words", ErrQuota, p.cfg.MemoryQuota)
	}
	p.releasePorts(ip)
	indexToID, links, err := p.bindContext(prog, pkg)
	if err != nil {
		return err
	}
	inst, err := p.instantiate(ip, prog, pkg)
	if err != nil {
		return err
	}
	ip.Pkg = pkg
	ip.prog = prog
	ip.indexToID = indexToID
	ip.links = links
	ip.inst = inst
	ip.restarts = 0
	ip.LastFault = nil
	p.bindRoutes(ip)
	for _, id := range indexToID {
		// Direct-read latches survive the swap for ports the new version
		// still binds — they are last-observed values, part of the state
		// that carries over.
		if v, ok := ip.upgrade.oldDirect[id]; ok {
			r := p.route(id)
			r.direct = v
			r.hasDirect = true
		}
	}
	p.rebuildSubs()
	p.persist(ip)
	return nil
}

// rollbackUpgrade aborts an in-flight upgrade and restores the old
// version: ports, program, exported state and NvM record, then
// re-delivers every message that was buffered during quiesce or
// consumed by the doomed new version during probation — traffic is
// delayed by a failed upgrade, never lost.
func (p *PIRTE) rollbackUpgrade(ip *Installed, cause error) {
	up := ip.upgrade
	if up == nil {
		return
	}
	ip.upgrade = nil
	p.eng.Cancel(up.swapEv)
	p.eng.Cancel(up.probeEv)
	p.clearTimers(ip)
	ip.inst.Stop()
	p.releasePorts(ip)
	ip.Pkg = up.oldPkg
	ip.prog = up.oldProg
	ip.indexToID = up.oldIndexToID
	ip.links = up.oldLinks
	p.bindRoutes(ip)
	for _, id := range ip.indexToID {
		if v, ok := up.oldDirect[id]; ok {
			r := p.route(id)
			r.direct = v
			r.hasDirect = true
		}
	}
	p.rebuildSubs()
	inst, err := p.instantiate(ip, up.oldProg, up.oldPkg)
	if err != nil {
		// The old program ran before, so this cannot happen short of
		// memory corruption; park the plug-in rather than guess.
		ip.state = StateFaulted
		ip.LastFault = err
		p.UpgradeRollbacks++
		up.done(fmt.Errorf("rollback: %v (restoring old version failed: %v)", cause, err))
		return
	}
	ip.inst = inst
	ip.state = StateRunning
	ip.restarts = 0
	p.persist(ip)
	// Re-init (re-arms the old version's timers), then restore the
	// exact pre-upgrade state over the init defaults.
	if ierr := ip.inst.Init(); ierr != nil {
		p.logf("pirte %s: rollback init of %s trapped: %v", p.cfg.SWC, ip.Name, ierr)
	}
	if _, rerr := up.oldState.RestoreInto(ip.inst); rerr != nil {
		// Cannot happen for a state this process captured; log, never drop
		// the rollback.
		p.logf("pirte %s: rollback state restore of %s: %v", p.cfg.SWC, ip.Name, rerr)
	}
	// Everything the failed upgrade consumed (probation replay log) or
	// delayed (still-buffered tail) goes to the restored old version, in
	// the original arrival order: the replay log always precedes what is
	// still buffered.
	pending := append(append([]portValue(nil), up.replay...), up.buffered...)
	for _, pv := range pending {
		p.execute(event{kind: 1, pl: ip, port: pv.port, value: pv.value})
	}
	p.UpgradeRollbacks++
	p.logf("pirte %s: upgrade of %s rolled back to %s: %v (%d messages re-delivered)",
		p.cfg.SWC, ip.Name, ip.Pkg.Binary.Manifest.Version, cause, len(pending))
	up.done(fmt.Errorf("rollback: %v", cause))
}

// commitUpgrade closes the transaction once the probe window elapsed
// without a fault: the old version's snapshot is dropped and the ack
// travels.
func (p *PIRTE) commitUpgrade(ip *Installed) {
	up := ip.upgrade
	if up == nil || up.phase != phaseProbe {
		return
	}
	ip.upgrade = nil
	p.Upgrades++
	p.logf("pirte %s: upgrade of %s to %s committed", p.cfg.SWC, ip.Name, ip.Pkg.Binary.Manifest.Version)
	up.done(nil)
}
