package pirte

import (
	"errors"
	"fmt"

	"dynautosar/internal/bsw"
	"dynautosar/internal/core"
	"dynautosar/internal/osek"
	"dynautosar/internal/plugin"
	"dynautosar/internal/sim"
	"dynautosar/internal/vm"
)

// FaultPolicy selects the PIRTE's reaction to a trapped plug-in.
type FaultPolicy int

const (
	// FaultStop stops the faulty plug-in until an explicit Start.
	FaultStop FaultPolicy = iota
	// FaultRestart restarts the plug-in fresh (paper section 5: plug-ins
	// are stopped and restarted fresh, no state transfer), up to
	// RestartLimit times.
	FaultRestart
)

// RestartLimit bounds automatic restarts under FaultRestart before a
// plug-in is parked as faulted.
const RestartLimit = 3

// State is the life cycle state of an installed plug-in.
type State int

const (
	// StateRunning is normal operation.
	StateRunning State = iota + 1
	// StateStopped means the plug-in is installed but halted.
	StateStopped
	// StateFaulted means the plug-in trapped and exhausted its restarts.
	StateFaulted
	// StateUpgrading means the plug-in is quiescing for a live upgrade:
	// inbound port traffic is buffered (delayed, not dropped) until the
	// replacement version is swapped in. See upgrade.go.
	StateUpgrading
)

// String implements fmt.Stringer.
func (s State) String() string {
	switch s {
	case StateRunning:
		return "running"
	case StateStopped:
		return "stopped"
	case StateFaulted:
		return "faulted"
	case StateUpgrading:
		return "upgrading"
	}
	return fmt.Sprintf("State(%d)", int(s))
}

// Errors of the dynamic part.
var (
	ErrUnknownPlugin     = errors.New("pirte: unknown plug-in")
	ErrDuplicate         = errors.New("pirte: plug-in already installed")
	ErrQuota             = errors.New("pirte: resource quota exceeded")
	ErrPortClash         = errors.New("pirte: plug-in port id already in use")
	ErrBadLink           = errors.New("pirte: PLC post incompatible with virtual port")
	ErrUpgradeInProgress = errors.New("pirte: upgrade already in progress")
)

// Config describes one plug-in SW-C to its PIRTE: the static SW-C ports,
// the virtual ports the OEM exposes (paper: provided "in the form of
// provided and required SW-C ports, connected to the rest of the system
// through the RTE", section 3.1.1), and the sandbox quotas.
type Config struct {
	ECU core.ECUID
	SWC core.SWCID
	// SWCPorts are the static ports of the plug-in SW-C.
	SWCPorts []core.SWCPortSpec
	// VirtualPorts is the static API available to plug-ins.
	VirtualPorts []core.VirtualPortSpec
	// DefaultBudget is the instruction budget per activation for plug-ins
	// that do not request one; zero selects vm.DefaultBudget.
	DefaultBudget int
	// MemoryQuota bounds the total global words of all installed plug-ins
	// (the VM "is assigned its own memory", section 3.1.1); zero means
	// unlimited.
	MemoryQuota int
	// MaxPlugins bounds the number of installed plug-ins; zero means
	// unlimited.
	MaxPlugins int
	// DispatchPriority is the OS priority of the plug-in dispatcher task;
	// keep it below the built-in tasks for best-effort execution.
	DispatchPriority osek.Priority
	// DispatchCost is the modelled execution time per dispatched plug-in
	// event.
	DispatchCost sim.Duration
	// FaultPolicy selects stop or restart-fresh on traps.
	FaultPolicy FaultPolicy
	// NvM, when set, persists installation packages so RestoreFromNvM can
	// rebuild the plug-in population after an ECU restart.
	NvM *bsw.NvM
	// UpgradeQuiesce is the live-upgrade quiesce window: the simulated
	// time between an upgrade request and the swap, during which inbound
	// traffic for the plug-in is buffered; zero selects
	// DefaultUpgradeQuiesce.
	UpgradeQuiesce sim.Duration
	// UpgradeProbe is the live-upgrade health-probe window: a fault of
	// the new version within it rolls the plug-in back to the old
	// version; zero selects DefaultUpgradeProbe.
	UpgradeProbe sim.Duration
}

// virtualPort is the static-part entry for one virtual port.
type virtualPort struct {
	spec core.VirtualPortSpec
	swc  core.SWCPortSpec
	mons []Monitor
	// subs is the precomputed inbound fan-out list: every installed
	// plug-in port linked to this virtual port (rebuilt on install,
	// uninstall and upgrade), so type III arrivals walk a slice instead
	// of scanning every plug-in's link table.
	subs []subscriber
	// Writes and Drops count traffic through the port.
	Writes uint64
	Drops  uint64
}

// subscriber is one fan-out target of a virtual port.
type subscriber struct {
	ip *Installed
	id core.PluginPortID
}

type timerState struct {
	armed  bool
	period sim.Duration
	ev     sim.EventID
}

// Installed is one plug-in under PIRTE management.
type Installed struct {
	Name core.PluginName
	Pkg  plugin.Package
	inst *vm.Instance
	prog *vm.Program
	// indexToID and links are dense, indexed by the program's declared
	// port index — the data plane never touches a map. The reverse
	// id-to-index direction lives in the PIRTE-wide route table.
	indexToID []core.PluginPortID
	links     []core.PLCEntry
	state     State
	timers    [8]timerState
	restarts  int
	// upgrade is the in-flight live-upgrade transaction, nil otherwise.
	upgrade *upgradeState
	// LastFault records the most recent trap.
	LastFault error
}

// State returns the plug-in's life cycle state.
func (ip *Installed) State() State { return ip.state }

// Stats exposes VM counters.
func (ip *Installed) Stats() (activations, instructions, faults uint64) {
	return ip.inst.Activations, ip.inst.Instructions, ip.inst.Faults
}

// event is one queued plug-in activation. Message events carry the
// SW-C-scope port id, resolved to the program's port index at execution
// time: a live upgrade may swap the plug-in's port layout between
// enqueue and dispatch, and the id is the stable name across versions.
type event struct {
	kind  int // 0 init, 1 message, 2 timer
	pl    *Installed
	index int               // timer id (kind 2)
	port  core.PluginPortID // target port (kind 1)
	value int64
}

// PIRTE is the plug-in runtime environment of one plug-in SW-C.
type PIRTE struct {
	cfg Config
	eng *sim.Engine

	virtByID  map[core.VirtualPortID]*virtualPort
	virtBySWC map[core.SWCPortID]*virtualPort
	swcPorts  map[core.SWCPortID]core.SWCPortSpec

	plugins map[core.PluginName]*Installed
	// routes is the dense routing table of the data plane, indexed by
	// SW-C-scope plug-in port id: owner, program port index and the
	// PIRTE-direct last-value latch, one cache line away instead of
	// three map lookups. Grown on demand up to maxPortID.
	routes []portRoute

	queue    eventRing
	kernel   *osek.Kernel
	dispatch osek.TaskID
	attached bool
	// writeSWC sends bytes out on a static SW-C port; wired by Attach (via
	// the RTE) or by tests.
	writeSWC func(core.SWCPortID, []byte) error
	// typeIProvided is the SW-C port used for acks and outbound external
	// wrapping; -1 when the SW-C has none.
	typeIProvided core.SWCPortID

	// typeIHook lets the ECM intercept type I messages (acks from remote
	// SW-Cs, outbound external messages). Return true to consume.
	typeIHook func(core.Message) bool
	// externalOut is called by the ECM PIRTE subclass when a local plug-in
	// writes to an ECC-routed port; nil elsewhere.
	externalOut func(pl core.PluginName, port core.PluginPortID, value int64) bool
	// logf receives plug-in OpLog output and PIRTE diagnostics.
	logf func(format string, args ...any)

	seq uint32

	// Reusable scratch of the per-message path (the PIRTE runs on the
	// single simulation goroutine): virtual-port format encoding, type
	// II multiplexing, outbound type I frames, and the string interner
	// of inbound type I decoding.
	encBuf   [8]byte
	muxBuf   [10]byte
	frameBuf []byte
	intern   core.Interner

	// Stats.
	Dispatched uint64
	Faults     uint64
	// Upgrades counts committed live upgrades, UpgradeRollbacks the ones
	// rolled back to the old version, and UpgradeDelayed the port
	// messages buffered (delayed, not dropped) during quiesce windows.
	Upgrades         uint64
	UpgradeRollbacks uint64
	UpgradeDelayed   uint64
}

// New builds a PIRTE from its configuration. Call Attach (or
// SetSWCWriter) before installing plug-ins that use SW-C ports.
func New(eng *sim.Engine, cfg Config) (*PIRTE, error) {
	p := &PIRTE{
		cfg:           cfg,
		eng:           eng,
		virtByID:      make(map[core.VirtualPortID]*virtualPort),
		virtBySWC:     make(map[core.SWCPortID]*virtualPort),
		swcPorts:      make(map[core.SWCPortID]core.SWCPortSpec),
		plugins:       make(map[core.PluginName]*Installed),
		typeIProvided: -1,
		logf:          func(string, ...any) {},
	}
	for _, sp := range cfg.SWCPorts {
		if !sp.Type.Valid() || !sp.Direction.Valid() {
			return nil, fmt.Errorf("pirte: SW-C port %s has invalid type or direction", sp.ID)
		}
		if _, dup := p.swcPorts[sp.ID]; dup {
			return nil, fmt.Errorf("pirte: duplicate SW-C port %s", sp.ID)
		}
		p.swcPorts[sp.ID] = sp
		if sp.Type == core.TypeI && sp.Direction == core.Provided && p.typeIProvided < 0 {
			p.typeIProvided = sp.ID
		}
	}
	for _, vs := range cfg.VirtualPorts {
		if err := vs.Validate(); err != nil {
			return nil, err
		}
		swc, ok := p.swcPorts[vs.SWCPort]
		if !ok {
			return nil, fmt.Errorf("pirte: virtual port %s maps to unknown SW-C port %s", vs.ID, vs.SWCPort)
		}
		if swc.Type != vs.Type {
			return nil, fmt.Errorf("pirte: virtual port %s type %v != SW-C port %s type %v",
				vs.ID, vs.Type, vs.SWCPort, swc.Type)
		}
		if _, dup := p.virtByID[vs.ID]; dup {
			return nil, fmt.Errorf("pirte: duplicate virtual port %s", vs.ID)
		}
		vp := &virtualPort{spec: vs, swc: swc}
		p.virtByID[vs.ID] = vp
		p.virtBySWC[vs.SWCPort] = vp
	}
	return p, nil
}

// Config returns the configuration.
func (p *PIRTE) Config() Config { return p.cfg }

// SetLogger routes plug-in log output and PIRTE diagnostics.
func (p *PIRTE) SetLogger(fn func(format string, args ...any)) {
	if fn != nil {
		p.logf = fn
	}
}

// SetSWCWriter wires the outbound SW-C port path; Attach does this
// automatically through the RTE.
func (p *PIRTE) SetSWCWriter(fn func(core.SWCPortID, []byte) error) { p.writeSWC = fn }

// SetTypeIHook installs the ECM's interceptor for inbound type I messages.
func (p *PIRTE) SetTypeIHook(fn func(core.Message) bool) { p.typeIHook = fn }

// SetExternalOut installs the ECM's handler for locally originated
// external writes.
func (p *PIRTE) SetExternalOut(fn func(core.PluginName, core.PluginPortID, int64) bool) {
	p.externalOut = fn
}

// AddMonitor guards a virtual port with a fault protection monitor.
func (p *PIRTE) AddMonitor(id core.VirtualPortID, m Monitor) error {
	vp, ok := p.virtByID[id]
	if !ok {
		return fmt.Errorf("pirte: unknown virtual port %s", id)
	}
	vp.mons = append(vp.mons, m)
	return nil
}

// VirtualPortStats returns traffic counters of a virtual port.
func (p *PIRTE) VirtualPortStats(id core.VirtualPortID) (writes, drops uint64, ok bool) {
	vp, found := p.virtByID[id]
	if !found {
		return 0, 0, false
	}
	return vp.Writes, vp.Drops, true
}

// Installed returns the installed plug-in names in no particular order.
func (p *PIRTE) Installed() []core.PluginName {
	names := make([]core.PluginName, 0, len(p.plugins))
	for n := range p.plugins {
		names = append(names, n)
	}
	return names
}

// Plugin returns the managed state of an installed plug-in.
func (p *PIRTE) Plugin(name core.PluginName) (*Installed, bool) {
	ip, ok := p.plugins[name]
	return ip, ok
}

// DirectRead returns the last value a plug-in wrote to an unlinked port,
// the PIRTE-direct channel of the paper's COM example.
func (p *PIRTE) DirectRead(port core.PluginPortID) (int64, bool) {
	r := p.route(port)
	if r == nil || !r.hasDirect {
		return 0, false
	}
	return r.direct, true
}

// portRoute is one entry of the dense port routing table.
type portRoute struct {
	// owner is the plug-in currently bound to the id (nil = free).
	owner *Installed
	// index is the owner program's declared port index.
	index int32
	// direct and hasDirect form the PIRTE-direct last-value latch of
	// unlinked ports.
	direct    int64
	hasDirect bool
}

// maxPortID bounds the SW-C-scope port id space; the wire form of the
// PIC carries ids as 16-bit values, so nothing beyond it can ship.
const maxPortID = 1 << 16

// route returns the routing entry of a port id, nil when the id was
// never bound.
func (p *PIRTE) route(id core.PluginPortID) *portRoute {
	if id < 0 || int(id) >= len(p.routes) {
		return nil
	}
	return &p.routes[id]
}

// ensureRoute grows the table to cover id and returns its entry.
func (p *PIRTE) ensureRoute(id core.PluginPortID) *portRoute {
	if int(id) >= len(p.routes) {
		grown := make([]portRoute, id+1)
		copy(grown, p.routes)
		p.routes = grown
	}
	return &p.routes[id]
}

// rebuildSubs recomputes every virtual port's inbound fan-out list from
// the installed population; called on install, uninstall and the
// upgrade swap/rollback paths (all cold).
func (p *PIRTE) rebuildSubs() {
	for _, vp := range p.virtByID {
		vp.subs = vp.subs[:0]
	}
	for _, ip := range p.plugins {
		for idx, post := range ip.links {
			if post.Kind != core.LinkVirtual {
				continue
			}
			if vp, ok := p.virtByID[post.Virtual]; ok {
				vp.subs = append(vp.subs, subscriber{ip: ip, id: ip.indexToID[idx]})
			}
		}
	}
}

// memoryInUse sums the global words of installed plug-ins.
func (p *PIRTE) memoryInUse() int {
	total := 0
	for _, ip := range p.plugins {
		total += int(ip.prog.Globals)
	}
	return total
}

// Install validates the package against the static configuration and the
// quotas, creates the sandboxed VM instance, links the ports per the PLC
// and runs the init handler. This is the dynamic part's core operation
// (paper section 3.1.2).
func (p *PIRTE) Install(pkg plugin.Package) error {
	if err := pkg.Validate(); err != nil {
		return err
	}
	name := pkg.Binary.Manifest.Name
	if _, dup := p.plugins[name]; dup {
		return fmt.Errorf("%w: %s", ErrDuplicate, name)
	}
	if p.cfg.MaxPlugins > 0 && len(p.plugins) >= p.cfg.MaxPlugins {
		return fmt.Errorf("%w: plug-in limit %d reached", ErrQuota, p.cfg.MaxPlugins)
	}
	prog, err := pkg.Binary.Decode()
	if err != nil {
		return err
	}
	if p.cfg.MemoryQuota > 0 && p.memoryInUse()+int(prog.Globals) > p.cfg.MemoryQuota {
		return fmt.Errorf("%w: memory quota %d words", ErrQuota, p.cfg.MemoryQuota)
	}

	indexToID, links, err := p.bindContext(prog, pkg)
	if err != nil {
		return err
	}

	ip := &Installed{
		Name:      name,
		Pkg:       pkg,
		prog:      prog,
		indexToID: indexToID,
		links:     links,
		state:     StateRunning,
	}
	inst, err := p.instantiate(ip, prog, pkg)
	if err != nil {
		return err
	}
	ip.inst = inst
	p.plugins[name] = ip
	p.bindRoutes(ip)
	p.rebuildSubs()
	p.persist(ip)
	p.enqueue(event{kind: 0, pl: ip})
	p.logf("pirte %s: installed %s %s (ports %v)", p.cfg.SWC, name,
		pkg.Binary.Manifest.Version, pkg.Context.PIC)
	return nil
}

// instantiate creates a fresh VM instance of prog, the decoded binary of
// pkg, bound to ip's ports, under the instruction budget the manifest
// requests or, when it names none, the configured default.
func (p *PIRTE) instantiate(ip *Installed, prog *vm.Program, pkg plugin.Package) (*vm.Instance, error) {
	budget := pkg.Binary.Manifest.Budget
	if budget == 0 {
		budget = p.cfg.DefaultBudget
	}
	return vm.NewInstance(prog, &host{p: p, ip: ip}, budget)
}

// bindContext validates a package's PIC and PLC against the static
// configuration and the current port population: ids must be free,
// every post must fit the virtual-port table and the port directions.
// Shared by Install and the live-upgrade swap (which releases the old
// version's ids first). It returns the dense per-index id and link
// tables; the caller publishes them into the route table via bindRoutes.
func (p *PIRTE) bindContext(prog *vm.Program, pkg plugin.Package) ([]core.PluginPortID, []core.PLCEntry, error) {
	name := pkg.Binary.Manifest.Name
	// Port Initialization Context: bind SW-C-scope unique ids to the
	// program's declared port indices.
	indexToID := make([]core.PluginPortID, len(prog.Ports))
	for i, decl := range prog.Ports {
		id, ok := pkg.Context.PIC.Lookup(decl.Name)
		if !ok {
			return nil, nil, fmt.Errorf("pirte: PIC misses port %q of plug-in %s", decl.Name, name)
		}
		if id < 0 || id >= maxPortID {
			return nil, nil, fmt.Errorf("pirte: port id %s of plug-in %s out of range", id, name)
		}
		if r := p.route(id); r != nil && r.owner != nil {
			return nil, nil, fmt.Errorf("%w: %s (held by %s)", ErrPortClash, id, r.owner.Name)
		}
		for _, prev := range indexToID[:i] {
			if prev == id {
				return nil, nil, fmt.Errorf("%w: %s (bound twice by %s)", ErrPortClash, id, name)
			}
		}
		indexToID[i] = id
	}
	lookup := func(id core.PluginPortID) (int, bool) {
		for i, bound := range indexToID {
			if bound == id {
				return i, true
			}
		}
		return 0, false
	}

	// Port Linking Context: validate every post against the virtual port
	// table and the port directions.
	links := make([]core.PLCEntry, len(prog.Ports))
	for _, post := range pkg.Context.PLC {
		idx, ok := lookup(post.Plugin)
		if !ok {
			return nil, nil, fmt.Errorf("pirte: PLC post %s refers to unassigned port", post.Plugin)
		}
		dir := prog.Ports[idx].Direction
		switch post.Kind {
		case core.LinkNone:
			// PIRTE-direct; always legal.
		case core.LinkVirtual:
			vp, ok := p.virtByID[post.Virtual]
			if !ok {
				return nil, nil, fmt.Errorf("%w: %s -> missing %s", ErrBadLink, post.Plugin, post.Virtual)
			}
			switch vp.spec.Type {
			case core.TypeII:
				// Receive-association: the plug-in port is fed by the mux.
				if dir != core.Required {
					return nil, nil, fmt.Errorf("%w: %s is provided but %s is a type II inbound association",
						ErrBadLink, post.Plugin, post.Virtual)
				}
			default:
				if vp.swc.Direction != dir {
					return nil, nil, fmt.Errorf("%w: %s (%v) vs %s (%v SW-C port)",
						ErrBadLink, post.Plugin, dir, post.Virtual, vp.swc.Direction)
				}
			}
		case core.LinkVirtualRemote:
			vp, ok := p.virtByID[post.Virtual]
			if !ok {
				return nil, nil, fmt.Errorf("%w: %s -> missing %s", ErrBadLink, post.Plugin, post.Virtual)
			}
			if vp.spec.Type != core.TypeII {
				return nil, nil, fmt.Errorf("%w: %s carries a remote id but %s is %v",
					ErrBadLink, post.Plugin, post.Virtual, vp.spec.Type)
			}
			if vp.swc.Direction != core.Provided {
				return nil, nil, fmt.Errorf("%w: %s targets inbound type II port %s",
					ErrBadLink, post.Plugin, post.Virtual)
			}
		case core.LinkPeer:
			if r := p.route(post.Peer); r == nil || r.owner == nil {
				return nil, nil, fmt.Errorf("%w: peer %s of %s not installed", ErrBadLink, post.Peer, post.Plugin)
			}
		}
		links[idx] = post
	}
	return indexToID, links, nil
}

// bindRoutes publishes a plug-in's port ids into the routing table. The
// latch state starts clear; the upgrade path re-applies preserved
// latches after rebinding.
func (p *PIRTE) bindRoutes(ip *Installed) {
	for i, id := range ip.indexToID {
		r := p.ensureRoute(id)
		*r = portRoute{owner: ip, index: int32(i)}
	}
}

// Uninstall stops and removes the plug-in, releasing its port ids and
// timers.
func (p *PIRTE) Uninstall(name core.PluginName) error {
	ip, ok := p.plugins[name]
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownPlugin, name)
	}
	if ip.upgrade != nil {
		return fmt.Errorf("%w: %s", ErrUpgradeInProgress, name)
	}
	ip.inst.Stop()
	p.clearTimers(ip)
	p.releasePorts(ip)
	delete(p.plugins, name)
	p.rebuildSubs()
	if p.cfg.NvM != nil {
		p.cfg.NvM.DeleteBlock(p.nvmKey(name))
	}
	p.logf("pirte %s: uninstalled %s", p.cfg.SWC, name)
	return nil
}

// releasePorts unbinds every port id owned by the plug-in, clearing
// the PIRTE-direct latches with them.
func (p *PIRTE) releasePorts(ip *Installed) {
	for _, id := range ip.indexToID {
		if r := p.route(id); r != nil && r.owner == ip {
			*r = portRoute{}
		}
	}
}

// Stop halts a plug-in; its events are rejected until Start.
func (p *PIRTE) Stop(name core.PluginName) error {
	ip, ok := p.plugins[name]
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownPlugin, name)
	}
	if ip.upgrade != nil {
		return fmt.Errorf("%w: %s", ErrUpgradeInProgress, name)
	}
	ip.inst.Stop()
	p.clearTimers(ip)
	ip.state = StateStopped
	return nil
}

// Start (re)starts a stopped or faulted plug-in fresh: a new VM instance
// with cleared globals, then the init handler — the paper's pragmatic
// alternative to state transfer (section 5).
func (p *PIRTE) Start(name core.PluginName) error {
	ip, ok := p.plugins[name]
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownPlugin, name)
	}
	if ip.upgrade != nil {
		return fmt.Errorf("%w: %s", ErrUpgradeInProgress, name)
	}
	inst, err := p.instantiate(ip, ip.prog, ip.Pkg)
	if err != nil {
		return err
	}
	ip.inst = inst
	ip.state = StateRunning
	p.enqueue(event{kind: 0, pl: ip})
	return nil
}

// persist stores the package in NvM for restore-after-replacement.
func (p *PIRTE) persist(ip *Installed) {
	if p.cfg.NvM == nil {
		return
	}
	if raw, err := ip.Pkg.MarshalBinary(); err == nil {
		p.cfg.NvM.WriteBlock(p.nvmKey(ip.Name), raw)
	}
}

func (p *PIRTE) nvmKey(name core.PluginName) string {
	return "pirte/" + string(p.cfg.SWC) + "/" + string(name)
}

// RestoreFromNvM reinstalls every persisted plug-in, used after a
// simulated ECU reboot. Already-installed plug-ins are skipped.
func (p *PIRTE) RestoreFromNvM() (int, error) {
	if p.cfg.NvM == nil {
		return 0, nil
	}
	prefix := "pirte/" + string(p.cfg.SWC) + "/"
	restored := 0
	for _, block := range p.cfg.NvM.Blocks() {
		if len(block) <= len(prefix) || block[:len(prefix)] != prefix {
			continue
		}
		raw, _ := p.cfg.NvM.ReadBlock(block)
		var pkg plugin.Package
		if err := pkg.UnmarshalBinary(raw); err != nil {
			return restored, fmt.Errorf("pirte: corrupt NvM block %q: %v", block, err)
		}
		if _, dup := p.plugins[pkg.Binary.Manifest.Name]; dup {
			continue
		}
		if err := p.Install(pkg); err != nil {
			return restored, err
		}
		restored++
	}
	return restored, nil
}

// clearTimers disarms all timers of a plug-in.
func (p *PIRTE) clearTimers(ip *Installed) {
	for i := range ip.timers {
		if ip.timers[i].armed {
			p.eng.Cancel(ip.timers[i].ev)
			ip.timers[i].armed = false
		}
	}
}

// enqueue adds a plug-in event and schedules dispatching. When the PIRTE
// is attached to an RTE the event is processed by the best-effort
// dispatcher task; standalone PIRTEs (unit tests, benchmarks) execute
// synchronously.
func (p *PIRTE) enqueue(ev event) {
	if !p.attached {
		p.execute(ev)
		return
	}
	p.queue.push(ev)
	_ = p.kernel.ActivateTask(p.dispatch)
}

// execute runs one plug-in event in the VM and applies the fault policy.
// Message traffic for a quiescing plug-in is buffered — delayed, never
// dropped — and replayed into the replacement version at swap time;
// faults within the health-probe window of a just-swapped plug-in roll
// it back instead of engaging the fault policy (see upgrade.go).
func (p *PIRTE) execute(ev event) {
	if up := ev.pl.upgrade; up != nil && up.phase == phaseQuiesce && ev.kind == 1 {
		up.buffered = append(up.buffered, portValue{port: ev.port, value: ev.value})
		p.UpgradeDelayed++
		return
	}
	if ev.pl.state != StateRunning {
		return
	}
	p.Dispatched++
	var err error
	switch ev.kind {
	case 0:
		err = ev.pl.inst.Init()
	case 1:
		if up := ev.pl.upgrade; up != nil && up.phase == phaseProbe {
			// Log probation traffic — before the index lookup, so a
			// message for a port the new version dropped is still
			// re-delivered to the restored old version on rollback
			// (which does declare it) instead of being lost.
			up.replay = append(up.replay, portValue{port: ev.port, value: ev.value})
		}
		rt := p.route(ev.port)
		if rt == nil || rt.owner != ev.pl {
			// Undeliverable to the current version; if an upgrade is on
			// probation the replay log above preserves it for rollback.
			p.logf("pirte %s: port %s not declared by %s, message not delivered",
				p.cfg.SWC, ev.port, ev.pl.Name)
			return
		}
		err = ev.pl.inst.Deliver(int(rt.index), ev.value)
	case 2:
		err = ev.pl.inst.Timer(ev.index)
	}
	if err == nil {
		return
	}
	if errors.Is(err, vm.ErrNoHandler) || errors.Is(err, vm.ErrStopped) {
		return // benign: nothing to run
	}
	p.Faults++
	ev.pl.LastFault = err
	p.logf("pirte %s: plug-in %s trapped: %v", p.cfg.SWC, ev.pl.Name, err)
	if up := ev.pl.upgrade; up != nil && up.phase == phaseProbe {
		p.rollbackUpgrade(ev.pl, err)
		return
	}
	switch p.cfg.FaultPolicy {
	case FaultRestart:
		if ev.pl.restarts < RestartLimit {
			ev.pl.restarts++
			p.clearTimers(ev.pl)
			if rerr := p.Start(ev.pl.Name); rerr == nil {
				return
			}
		}
		fallthrough
	default:
		ev.pl.inst.Stop()
		p.clearTimers(ev.pl)
		ev.pl.state = StateFaulted
	}
}

// nextSeq yields sequence numbers for locally originated messages.
func (p *PIRTE) nextSeq() uint32 {
	p.seq++
	return p.seq
}
