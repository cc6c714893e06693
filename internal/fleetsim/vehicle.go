package fleetsim

import (
	"math/rand"
	"net"
	"time"

	"dynautosar/internal/core"
	"dynautosar/internal/plugin"
	"dynautosar/internal/sim"
)

// plugKey identifies one flashed plug-in slot on a vehicle.
type plugKey struct {
	ECU    core.ECUID
	SWC    core.SWCID
	Plugin core.PluginName
}

// SimVehicle is a protocol-level vehicle: it speaks the real ECM wire
// protocol (hello, install/upgrade/uninstall, ack/nack) against the
// real pusher over a net.Pipe, but replaces the full PIRTE stack with
// a flash map of installed plug-in versions — cheap enough to run ten
// thousand in one process.
//
// Ownership: every field is mutated only on the pump goroutine, either
// from engine events or from closures the reader goroutine hands back
// via sim.Engine.Inject. The reader itself only reads frames.
type SimVehicle struct {
	f   *Fleet
	idx int
	ID  core.VehicleID
	// rng is the vehicle's own deterministic stream, derived from the
	// scenario seed and the vehicle index so one vehicle's draws don't
	// shift another's.
	rng *rand.Rand

	conn net.Conn // nil while offline
	// shardIdx is the vehicle's ring-owning shard: the only server this
	// vehicle ever dials.
	shardIdx int
	// srvGen records which shard incarnation the link was dialled into,
	// so a crash can sweep links that raced its CloseAll.
	srvGen int
	bo     core.Backoff
	// inflight tracks scheduled ack/nack events; a vehicle crash cancels
	// them, losing in-flight work exactly like a reboot would.
	inflight map[sim.EventID]struct{}

	partitioned bool
	corruptProb float64
	// probeFail makes the vehicle fail its post-upgrade health probes:
	// every MsgUpgrade is nacked with a rollback-requesting reason that
	// the server settles as CodeRolledBack and rollout gates count.
	probeFail bool
	ackMin    sim.Duration
	ackMax    sim.Duration

	// plugins is the flash state — (ECU, SW-C, plug-in) to version. A
	// mutation is applied only after the matching ack was successfully
	// written, so at quiescence "server saw the ack" and "vehicle holds
	// the install" coincide exactly. It survives vehicle crashes.
	plugins map[plugKey]string

	connects, acks, nacks uint64
}

func newSimVehicle(f *Fleet, idx int, id core.VehicleID) *SimVehicle {
	v := &SimVehicle{
		f: f, idx: idx, ID: id,
		rng:      rand.New(rand.NewSource(f.sc.Seed ^ int64(uint64(idx+1)*0x9E3779B97F4A7C15))),
		inflight: make(map[sim.EventID]struct{}),
		ackMin:   f.sc.AckMin,
		ackMax:   f.sc.AckMax,
		plugins:  make(map[plugKey]string),
	}
	v.bo = core.Backoff{Base: 50 * time.Millisecond, Max: 5 * time.Second, Rand: v.rng.Float64}
	return v
}

// connect dials the current server: pipe, hello, reader. Runs as an
// engine event (initial stagger, backoff retries).
func (v *SimVehicle) connect() {
	f := v.f
	if f.closed || v.conn != nil {
		return
	}
	sh := f.shards[v.shardIdx]
	srv := sh.srv
	if v.partitioned || srv == nil {
		v.scheduleRetry()
		return
	}
	vehicleSide, serverSide := net.Pipe()
	go srv.Pusher().ServeConn(serverSide)
	hello := core.Message{Type: core.MsgHello, Payload: []byte(v.ID)}
	if err := core.WriteMessage(vehicleSide, hello); err != nil {
		vehicleSide.Close()
		v.scheduleRetry()
		return
	}
	v.conn = vehicleSide
	v.srvGen = sh.gen
	v.bo.Reset()
	v.connects++
	go v.readLoop(vehicleSide)
}

func (v *SimVehicle) scheduleRetry() {
	if v.f.closed {
		return
	}
	d := sim.Duration(v.bo.Next()/time.Microsecond) * sim.Microsecond
	if d <= 0 {
		d = sim.Millisecond
	}
	v.f.eng.After(d, v.connect)
}

// readLoop is the vehicle's only goroutine: it reads frames off the
// link and hands them to the pump. It exits when the link dies.
func (v *SimVehicle) readLoop(conn net.Conn) {
	for {
		msg, err := core.ReadMessage(conn)
		if err != nil {
			v.f.eng.Inject(func() { v.onLinkDown(conn) })
			return
		}
		rcv := time.Now()
		v.f.eng.Inject(func() { v.handle(conn, msg, rcv) })
	}
}

// onLinkDown reacts to the reader seeing the link die; stale
// notifications from an already-replaced link are ignored.
func (v *SimVehicle) onLinkDown(conn net.Conn) {
	if v.conn != conn {
		return
	}
	v.conn = nil
	v.scheduleRetry()
}

// dropLink cuts the current link (fault injection). The server's
// disconnect sweep fails the link's pending pushes; the vehicle redials
// with backoff.
func (v *SimVehicle) dropLink() {
	if v.conn == nil {
		return
	}
	v.conn.Close()
	v.conn = nil
	v.scheduleRetry()
}

// crash reboots the vehicle: scheduled ack work is lost (never applied,
// never sent — consistent both ways), flashed plug-ins survive, and the
// redial starts from a fresh backoff.
func (v *SimVehicle) crash() {
	for id := range v.inflight {
		v.f.eng.Cancel(id)
	}
	clear(v.inflight)
	v.bo.Reset()
	if v.conn == nil {
		return // already offline; the pending retry chain keeps running
	}
	v.conn.Close()
	v.conn = nil
	v.scheduleRetry()
}

func (v *SimVehicle) ackDelay() sim.Duration {
	if v.ackMax <= v.ackMin {
		return v.ackMin
	}
	return v.ackMin + sim.Duration(v.rng.Int63n(int64(v.ackMax-v.ackMin)))
}

// handle processes one pushed frame on the pump goroutine: after the
// vehicle's virtual think time it either acks (and applies) or, while a
// bus fault corrupts its frames, nacks.
func (v *SimVehicle) handle(conn net.Conn, msg core.Message, rcv time.Time) {
	if v.conn != conn {
		return // frame raced the link teardown
	}
	switch msg.Type {
	case core.MsgInstall, core.MsgUpgrade, core.MsgUninstall:
	default:
		return // FES relays and future traffic are out of scope here
	}
	corrupt := v.corruptProb > 0 && v.rng.Float64() < v.corruptProb
	var id sim.EventID
	id = v.f.eng.After(v.ackDelay(), func() {
		delete(v.inflight, id)
		if corrupt {
			v.f.m.corrupted++
			if v.send(conn, msg.Nack("bus fault: corrupt frame")) {
				v.nacks++
			}
			return
		}
		if v.probeFail && msg.Type == core.MsgUpgrade {
			v.f.m.probeNacks++
			if v.send(conn, msg.Nack("rollback: injected probe failure")) {
				v.nacks++
			}
			return
		}
		v.applyAck(conn, msg, rcv)
	})
	v.inflight[id] = struct{}{}
}

// applyAck validates the package, writes the ack and only then mutates
// the flash state: a write that fails (link died) applies nothing, so
// the server's disconnect sweep and the vehicle agree.
func (v *SimVehicle) applyAck(conn net.Conn, msg core.Message, rcv time.Time) {
	if v.conn != conn {
		return
	}
	key := plugKey{ECU: msg.ECU, SWC: msg.SWC, Plugin: msg.Plugin}
	version := ""
	if msg.Type != core.MsgUninstall {
		var pkg plugin.Package
		if err := pkg.UnmarshalBinary(msg.Payload); err != nil {
			if v.send(conn, msg.Nack("bad package: "+err.Error())) {
				v.nacks++
			}
			return
		}
		version = pkg.Binary.Manifest.Version
	}
	if !v.send(conn, msg.Ack()) {
		return
	}
	v.acks++
	v.f.m.ackRTT.record(time.Since(rcv))
	if msg.Type == core.MsgUninstall {
		delete(v.plugins, key)
	} else {
		v.plugins[key] = version
	}
}

func (v *SimVehicle) send(conn net.Conn, msg core.Message) bool {
	return core.WriteMessage(conn, msg) == nil
}
