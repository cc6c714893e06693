package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"dynautosar/internal/api"
	"dynautosar/internal/core"
	"dynautosar/internal/federation"
	"dynautosar/internal/journal"
	"dynautosar/internal/plugin"
	"dynautosar/internal/server"
	"dynautosar/internal/vehicle"
)

// Injected delays and poll intervals. They are part of the benchmark's
// definition: a flush on this sandbox's disk and a hop between two
// in-process journals cost almost nothing, so without them the journal
// and replication layers would carry no weight on the blocking path.
// They are constants from public hooks, not device measurements.
const (
	syncDelay = 1 * time.Millisecond   // device flush, journal.FaultInjection.SyncDelay
	shipDelay = 500 * time.Microsecond // leader→follower link, shipTransport
	ackDelay  = 2 * time.Millisecond   // vehicle think time before its ack

	pollSingle = 100 * time.Microsecond // api.Client.WaitOperation interval, single ops
	pollBatch  = 1 * time.Millisecond   // same, batch parents

	opDeadline = 10 * time.Second // a stuck fleet becomes a counted failure, not a hang

	fleetUser core.UserID  = "fleet"
	appV1     core.AppName = "FleetNav-1"
	appV2     core.AppName = "FleetNav-2"
	fedShards              = 3
)

// plugKey is one flash slot of a simulated vehicle.
type plugKey struct {
	ECU    core.ECUID
	SWC    core.SWCID
	Plugin core.PluginName
}

// peer is one simulated vehicle: the far end of a net.Pipe whose near
// end the real Pusher serves. It speaks the ECM wire protocol (hello,
// then an ack per install/upgrade/uninstall push) and keeps a flash
// model of what it acknowledged, which the correctness check compares
// with the server's InstalledAPP rows. One reader goroutine, no
// sockets; the fleet is the workload's size, not generator parallelism.
type peer struct {
	id    core.VehicleID
	conn  net.Conn
	delay time.Duration
	tr    *tracer

	// mu orders ack writes (delayed acks run on timer goroutines) and
	// guards flash. The load generator never takes it while a latency
	// sample is open.
	mu    sync.Mutex
	flash map[plugKey]string
	bad   int // pushes whose package did not decode

	// Traced runs only: when the first push since the last mark was
	// read and the last ack was written, as offsets on tr.t0 (0 = none).
	firstPush atomic.Int64
	lastAck   atomic.Int64
	pushes    atomic.Int64
	pushBytes atomic.Int64
}

func (p *peer) serve() {
	for {
		msg, err := core.ReadMessage(p.conn)
		if err != nil {
			return
		}
		switch msg.Type {
		case core.MsgInstall, core.MsgUpgrade, core.MsgUninstall:
		default:
			continue
		}
		p.pushes.Add(1)
		p.pushBytes.Add(int64(len(msg.Payload)))
		if p.tr != nil {
			p.firstPush.CompareAndSwap(0, int64(time.Since(p.tr.t0)))
		}
		if p.delay == 0 {
			p.ack(msg)
		} else {
			time.AfterFunc(p.delay, func() { p.ack(msg) })
		}
	}
}

// ack validates the package, writes the acknowledgement and only then
// updates the flash model, so "the server saw the ack" and "the vehicle
// holds the plug-in" coincide at quiescence.
func (p *peer) ack(msg core.Message) {
	version := ""
	if msg.Type != core.MsgUninstall {
		var pkg plugin.Package
		if err := pkg.UnmarshalBinary(msg.Payload); err != nil {
			p.mu.Lock()
			p.bad++
			_ = core.WriteMessage(p.conn, msg.Nack("bad package: "+err.Error())) // a dead link fails the op server-side too
			p.mu.Unlock()
			return
		}
		version = pkg.Binary.Manifest.Version
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if err := core.WriteMessage(p.conn, msg.Ack()); err != nil {
		return
	}
	if p.tr != nil {
		p.lastAck.Store(int64(time.Since(p.tr.t0)))
	}
	key := plugKey{ECU: msg.ECU, SWC: msg.SWC, Plugin: msg.Plugin}
	if msg.Type == core.MsgUninstall {
		delete(p.flash, key)
	} else {
		p.flash[key] = version
	}
}

// shard is one partition of the federated plane: a leader server with
// a journal, shipping synchronously to a local replica.
type shard struct {
	name    string
	srv     *server.Server
	dir     string
	replica *journal.Replica
	shipper *journal.Shipper
	ship    *shipTransport
	svc     *spanSvc // server seam (traced runs), nil otherwise
}

// plane is one control plane under test plus its simulated fleet.
type plane struct {
	fed    bool
	client *api.Client
	shards []*shard // one memory-only entry when !fed
	ring   *federation.Ring
	peers  map[core.VehicleID]*peer
	vins   []core.VehicleID
	// deadline bounds one operation, request to Done.
	deadline time.Duration
	// appVersions maps app → plug-in → version, to read a flash model
	// as InstalledAPP rows.
	appVersions map[core.AppName]map[core.PluginName]string

	apiSeam *spanSvc // nil when untraced
	rt      *spanRoundTripper

	// lagMax is the largest follower lag the sampler saw (traced only).
	lagMax      atomic.Int64
	samplerStop chan struct{}
	samplerDone chan struct{}

	dir       string
	httpSrv   *http.Server
	transport *http.Transport
	serveDone chan struct{}
	peerWG    sync.WaitGroup
}

// vehicleConf is the model-car configuration every simulated vehicle
// registers with (the shape cmd/vehicle emits).
func vehicleConf(id core.VehicleID) core.VehicleConf {
	ecmCfg := vehicle.ECMConfig()
	swc2Cfg := vehicle.SWC2Config()
	return core.VehicleConf{
		Vehicle: id, Model: "modelcar-v1",
		SWCs: []core.SWCConf{
			{ECU: vehicle.ECU1, SWC: vehicle.SWC1, MemoryQuota: ecmCfg.MemoryQuota,
				MaxPlugins: ecmCfg.MaxPlugins, ECM: true, VirtualPorts: ecmCfg.VirtualPorts},
			{ECU: vehicle.ECU2, SWC: vehicle.SWC2, MemoryQuota: swc2Cfg.MemoryQuota,
				MaxPlugins: swc2Cfg.MaxPlugins, VirtualPorts: swc2Cfg.VirtualPorts},
		},
	}
}

// shardNames are the federated plane's shard names, s0..s2.
func shardNames() []string {
	names := make([]string, fedShards)
	for i := range names {
		names[i] = fmt.Sprintf("s%d", i)
	}
	return names
}

// seam wraps svc in a span recorder when tracing; untraced runs call
// the service directly.
func seam(svc api.DeploymentService, layer string, tr *tracer) (api.DeploymentService, *spanSvc) {
	if tr == nil {
		return svc, nil
	}
	s := &spanSvc{DeploymentService: svc, layer: layer, tr: tr}
	return s, s
}

// buildPlane assembles the plane, uploads the apps and binds and
// connects the fleet: everything before the first timed operation.
// root is a fresh directory the plane owns and removes on close.
func buildPlane(fed bool, vins []core.VehicleID, apps []api.App, clients int, root string, tr *tracer) (_ *plane, err error) {
	pl := &plane{
		fed: fed, vins: vins, dir: root, deadline: opDeadline,
		peers:       make(map[core.VehicleID]*peer, len(vins)),
		appVersions: make(map[core.AppName]map[core.PluginName]string),
	}
	defer func() {
		if err != nil {
			err = errors.Join(err, pl.close())
		}
	}()
	for _, app := range apps {
		vers := make(map[core.PluginName]string, len(app.Binaries))
		for _, b := range app.Binaries {
			vers[b.Manifest.Name] = b.Manifest.Version
		}
		pl.appVersions[app.Name] = vers
	}
	ctx := context.Background()
	peerDelay := time.Duration(0)
	if fed {
		peerDelay = ackDelay
		names := shardNames()
		fshards := make([]federation.Shard, fedShards)
		for i := range names {
			sh, err := openShard(names[i], filepath.Join(root, names[i]), tr)
			if sh != nil {
				pl.shards = append(pl.shards, sh)
			}
			if err != nil {
				return pl, err
			}
			var svc api.DeploymentService
			svc, sh.svc = seam(sh.srv.Service(), "server", tr)
			fshards[i] = federation.Shard{Name: names[i], Replicas: []federation.Replica{{Name: names[i] + "-leader", Svc: svc}}}
		}
		router, err := federation.NewRouter(fshards, federation.RouterOptions{})
		if err != nil {
			return pl, err
		}
		pl.ring = router.Ring()
		routerSvc, _ := seam(router, "federation", tr)
		// Rate limiting off and request logging off: both are recorded in
		// the environment block.
		h := api.NewHandler(routerSvc, &api.HandlerOptions{RatePerSecond: -1})
		if tr != nil {
			h = spanHandler(h)
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return pl, err
		}
		pl.httpSrv = &http.Server{Handler: h}
		pl.serveDone = make(chan struct{})
		go func() {
			defer close(pl.serveDone)
			_ = pl.httpSrv.Serve(ln) // returns ErrServerClosed on close
		}()
		// Keep-alive connections are capped at the client count: the
		// load generator may not out-thread the machine.
		pl.transport = &http.Transport{MaxIdleConnsPerHost: clients, MaxConnsPerHost: clients}
		var rt http.RoundTripper = pl.transport
		if tr != nil {
			pl.rt = &spanRoundTripper{next: pl.transport}
			rt = pl.rt
		}
		pl.client = api.NewClient("http://"+ln.Addr().String(), &http.Client{Transport: rt})
	} else {
		srv := server.New()
		sh := &shard{name: "mem", srv: srv}
		pl.shards = append(pl.shards, sh)
		var svc api.DeploymentService
		svc, sh.svc = seam(srv.Service(), "server", tr)
		pl.client = api.NewLocalClient(svc)
	}
	pl.client.DeploymentService, pl.apiSeam = seam(pl.client.DeploymentService, "api", tr)

	if _, err := pl.client.CreateUser(ctx, api.CreateUserRequest{ID: fleetUser}); err != nil {
		return pl, err
	}
	for _, app := range apps {
		if _, err := pl.client.UploadApp(ctx, app); err != nil {
			return pl, fmt.Errorf("upload %s: %w", app.Name, err)
		}
	}
	if err := pl.bindFleet(ctx, clients); err != nil {
		return pl, err
	}
	if err := pl.connectFleet(peerDelay, tr); err != nil {
		return pl, err
	}
	if tr != nil && fed {
		pl.startLagSampler()
	}
	return pl, nil
}

// lagSampleEvery is how often a traced repetition reads the followers'
// byte lag from Shipper.Status.
const lagSampleEvery = 2 * time.Millisecond

func (pl *plane) startLagSampler() {
	pl.samplerStop = make(chan struct{})
	pl.samplerDone = make(chan struct{})
	go func() {
		defer close(pl.samplerDone)
		t := time.NewTicker(lagSampleEvery)
		defer t.Stop()
		for {
			select {
			case <-pl.samplerStop:
				return
			case <-t.C:
			}
			for _, sh := range pl.shards {
				if lag := sh.shipper.Status()[0].LagBytes; lag > pl.lagMax.Load() {
					pl.lagMax.Store(lag)
				}
			}
		}
	}()
}

// openShard boots one shard leader with its journal, injected flush
// delay and synchronous replica. The shard is returned even on error so
// the caller's close releases what was opened.
func openShard(name, dir string, tr *tracer) (*shard, error) {
	sh := &shard{name: name, dir: filepath.Join(dir, "leader")}
	if err := os.MkdirAll(sh.dir, 0o755); err != nil {
		return nil, err
	}
	sh.srv = server.New()
	sh.srv.SetShard(name)
	if err := sh.srv.OpenJournal(sh.dir); err != nil {
		return sh, fmt.Errorf("shard %s: %w", name, err)
	}
	sh.srv.Journal().SetFault(&journal.FaultInjection{SyncDelay: func() time.Duration { return syncDelay }})
	if err := sh.srv.BecomeLeader("boot"); err != nil {
		return sh, fmt.Errorf("shard %s: %w", name, err)
	}
	var err error
	if sh.replica, err = journal.OpenReplica(filepath.Join(dir, "replica"), nil); err != nil {
		return sh, fmt.Errorf("shard %s replica: %w", name, err)
	}
	sh.ship = &shipTransport{inner: journal.LocalTransport{R: sh.replica}, delay: shipDelay, tr: tr, shard: name}
	sh.shipper, err = sh.srv.StartReplication(
		[]journal.Follower{{Name: name + "-follower", T: sh.ship}},
		journal.ShipperOptions{Synchronous: true})
	if err != nil {
		return sh, fmt.Errorf("shard %s replication: %w", name, err)
	}
	return sh, nil
}

// bindFleet registers every vehicle through the operator's client,
// from `clients` closed-loop binders.
func (pl *plane) bindFleet(ctx context.Context, clients int) error {
	var next atomic.Int64
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(pl.vins) {
					return
				}
				req := api.BindVehicleRequest{Owner: fleetUser, Conf: vehicleConf(pl.vins[i])}
				if _, err := pl.client.BindVehicle(ctx, req); err != nil {
					errs[c] = fmt.Errorf("bind %s: %w", pl.vins[i], err)
					return
				}
			}
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// shardOf returns the shard that owns a vehicle.
func (pl *plane) shardOf(v core.VehicleID) *shard {
	if !pl.fed {
		return pl.shards[0]
	}
	owner := pl.ring.Owner(v)
	for _, sh := range pl.shards {
		if sh.name == owner {
			return sh
		}
	}
	return nil
}

// connectFleet attaches every vehicle to its owning shard's Pusher over
// a net.Pipe and waits until the server has registered each link.
func (pl *plane) connectFleet(delay time.Duration, tr *tracer) error {
	for _, id := range pl.vins {
		sh := pl.shardOf(id)
		vehicleSide, serverSide := net.Pipe()
		p := &peer{id: id, conn: vehicleSide, delay: delay, tr: tr, flash: make(map[plugKey]string)}
		pl.peers[id] = p
		pl.peerWG.Add(2)
		go func() {
			defer pl.peerWG.Done()
			sh.srv.Pusher().ServeConn(serverSide)
		}()
		if err := core.WriteMessage(vehicleSide, core.Message{Type: core.MsgHello, Payload: []byte(id)}); err != nil {
			pl.peerWG.Done()
			return fmt.Errorf("hello %s: %w", id, err)
		}
		go func() {
			defer pl.peerWG.Done()
			p.serve()
		}()
	}
	deadline := time.Now().Add(opDeadline)
	for _, id := range pl.vins {
		pusher := pl.shardOf(id).srv.Pusher()
		for !pusher.Connected(id) {
			if time.Now().After(deadline) {
				return fmt.Errorf("vehicle %s never connected", id)
			}
			runtime.Gosched()
		}
	}
	return nil
}

// close drains the fleet and tears the plane down: every peer and
// pusher goroutine has exited, the journals are closed and the
// directory is gone when it returns. Safe on a half-built plane.
func (pl *plane) close() error {
	if pl.samplerStop != nil {
		close(pl.samplerStop)
		<-pl.samplerDone
	}
	for _, p := range pl.peers {
		p.conn.Close()
	}
	pl.peerWG.Wait()
	var errs []error
	if pl.httpSrv != nil {
		errs = append(errs, pl.httpSrv.Close())
		<-pl.serveDone
		pl.transport.CloseIdleConnections()
	}
	for _, sh := range pl.shards {
		if sh.srv != nil {
			if err := sh.srv.Close(); err != nil && sh.srv.Journal().Err() == nil {
				errs = append(errs, fmt.Errorf("close %s: %w", sh.name, err))
			}
		}
		if sh.replica != nil {
			errs = append(errs, sh.replica.Close())
		}
	}
	if pl.dir != "" {
		errs = append(errs, os.RemoveAll(pl.dir))
	}
	return errors.Join(errs...)
}

// flashMismatch compares the vehicle's flash model with its InstalledAPP
// rows on the owning server and describes the first difference ("" when
// they agree): same slots, every plug-in acknowledged, and the flashed
// version is the one the row's app ships.
func (pl *plane) flashMismatch(id core.VehicleID, rows []api.InstalledApp) string {
	p := pl.peers[id]
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.bad > 0 {
		return fmt.Sprintf("%s: %d pushes did not decode", id, p.bad)
	}
	slots := 0
	for _, row := range rows {
		for _, ip := range row.Plugins {
			slots++
			got, ok := p.flash[plugKey{ECU: ip.ECU, SWC: ip.SWC, Plugin: ip.Plugin}]
			switch want := pl.appVersions[row.App][ip.Plugin]; {
			case !ok:
				return fmt.Sprintf("%s: server lists %s/%s, vehicle does not hold it", id, row.App, ip.Plugin)
			case !ip.Acked:
				return fmt.Sprintf("%s: %s/%s flashed but not acked on the server", id, row.App, ip.Plugin)
			case got != want:
				return fmt.Sprintf("%s: %s/%s flashed at %s, app ships %s", id, row.App, ip.Plugin, got, want)
			}
		}
	}
	if slots != len(p.flash) {
		return fmt.Sprintf("%s: vehicle holds %d plug-ins, server lists %d", id, len(p.flash), slots)
	}
	return ""
}

// planeCounters are the public counters of every layer of a plane,
// summed over its shards: Journal.Stats, Shipper.Status, Replica.State,
// Pusher.Stats and the bench-owned peers and ship transports. The
// repetition reports the measured phase's share (end minus set-up).
type planeCounters struct {
	records, commits, snapshots uint64
	shipCalls, shipBytes        int64
	pushes, pushBytes           int64
	resyncs                     uint64
	pollCalls, shardCalls       int64
	respBytes                   int64

	// End-of-repetition readings, not differences.
	replicaGapBytes     int64
	lagBytesMax         int64
	statzUS             float64
	recoverMSPerKRecord float64
}

func (pl *plane) counters() planeCounters {
	var c planeCounters
	for _, sh := range pl.shards {
		if jn := sh.srv.Journal(); jn != nil {
			st := jn.Stats()
			c.records += st.Appended
			c.commits += st.Flushes
			c.snapshots += st.Gen
		}
		if sh.ship != nil {
			c.shipCalls += sh.ship.calls.Load()
			c.shipBytes += sh.ship.bytes.Load()
		}
		if sh.shipper != nil {
			c.resyncs += sh.shipper.Status()[0].Resyncs
		}
		if sh.svc != nil {
			c.shardCalls += sh.svc.calls.Load()
		}
	}
	for _, p := range pl.peers {
		c.pushes += p.pushes.Load()
		c.pushBytes += p.pushBytes.Load()
	}
	if pl.apiSeam != nil {
		c.pollCalls = pl.apiSeam.polls.Load()
	}
	if pl.rt != nil {
		c.respBytes = pl.rt.respBytes.Load()
	}
	c.lagBytesMax = pl.lagMax.Load()
	return c
}

// add folds another repetition's counters in: differences sum, the
// end-of-repetition readings keep the larger gap and lag and the later
// timing.
func (c planeCounters) add(b planeCounters) planeCounters {
	c.records += b.records
	c.commits += b.commits
	c.snapshots += b.snapshots
	c.shipCalls += b.shipCalls
	c.shipBytes += b.shipBytes
	c.pushes += b.pushes
	c.pushBytes += b.pushBytes
	c.resyncs += b.resyncs
	c.pollCalls += b.pollCalls
	c.shardCalls += b.shardCalls
	c.respBytes += b.respBytes
	c.replicaGapBytes = max(c.replicaGapBytes, b.replicaGapBytes)
	c.lagBytesMax = max(c.lagBytesMax, b.lagBytesMax)
	c.statzUS, c.recoverMSPerKRecord = b.statzUS, b.recoverMSPerKRecord
	return c
}

func (c planeCounters) sub(b planeCounters) planeCounters {
	c.records -= b.records
	c.commits -= b.commits
	c.snapshots -= b.snapshots
	c.shipCalls -= b.shipCalls
	c.shipBytes -= b.shipBytes
	c.pushes -= b.pushes
	c.pushBytes -= b.pushBytes
	c.resyncs -= b.resyncs
	c.pollCalls -= b.pollCalls
	c.shardCalls -= b.shardCalls
	c.respBytes -= b.respBytes
	return c
}

// quiesce makes every journal durable and waits for each replica to
// hold its leader's committed bytes: same generation, same size as the
// leader's segment file. A resync on the way there is counted
// (journal.resyncs), not refused: the shipper heals a follower that way
// by design, and at the commit that added the benchmark a synchronous
// ship now and then overtakes a chunk still in the follower's queue
// right after a snapshot rotation.
func (pl *plane) quiesce() error {
	for _, sh := range pl.shards {
		if sh.replica == nil {
			continue
		}
		if err := sh.srv.Journal().Sync(); err != nil {
			return fmt.Errorf("shard %s sync: %w", sh.name, err)
		}
		deadline := time.Now().Add(opDeadline)
		for {
			gap, err := sh.replicaGap()
			if err == nil && gap == 0 {
				break
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("shard %s: replica never caught up (gap %d bytes, %v)", sh.name, gap, err)
			}
			time.Sleep(time.Millisecond)
		}
	}
	return nil
}

// replicaGap is the leader's committed offset minus the replica's
// durable offset, read from the leader's segment file and
// Replica.State; an error while the two sit on different generations
// (a snapshot still travelling).
func (sh *shard) replicaGap() (int64, error) {
	rs := sh.replica.State()
	if gen := sh.srv.Journal().Stats().Gen; gen != rs.Gen {
		return -1, fmt.Errorf("leader generation %d, replica %d", gen, rs.Gen)
	}
	fi, err := os.Stat(filepath.Join(sh.dir, fmt.Sprintf("wal-%016d.log", rs.Gen)))
	if err != nil {
		return -1, err
	}
	return fi.Size() - rs.Size, nil
}
