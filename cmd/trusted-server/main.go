// Trusted-server runs the off-board trusted server of the dynamic
// component model: the Web Services HTTP API for users, OEMs and plug-in
// developers, and the Pusher TCP listener that the vehicles' ECMs dial
// into (paper section 3.2).
//
//	trusted-server -http :8080 -push :9090 -data-dir /var/lib/trusted-server
//
// With -data-dir set, every store mutation is persisted to a
// write-ahead journal with snapshot compaction, and a restart recovers
// the full state (users, vehicles, apps, installations, operations);
// operations that were in flight when the process died are settled as
// failed with the stable "interrupted" error code. Without it the
// server runs memory-only, as before. GET /v1/healthz reports recovery
// counters so orchestrators can gate traffic.
//
// In a federated control plane the process takes a shard identity:
//
//	trusted-server -shard s1 -role leader -peers s1-b=http://host-b:8080 ...
//	trusted-server -shard s1 -role follower -http :8080 -push :9090 -data-dir ...
//
// A leader ships its journal synchronously to every -peers follower
// before acknowledging commits; a follower serves only the replication
// endpoints (plus healthz/statz) and answers every client request with
// the stable `not_leader` code until POST /v1/promote turns it into the
// shard's leader, recovering the replicated journal and opening the
// pusher listener for reconnecting vehicles.
//
// SIGINT/SIGTERM shut down cleanly: the HTTP server drains, the pusher
// listener stops, and the journal writes a final snapshot and closes —
// a routine restart never relies on crash recovery.
//
// Drive it with cmd/fescli and connect vehicles with cmd/vehicle.
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"dynautosar/internal/federation"
	"dynautosar/internal/journal"
	"dynautosar/internal/server"
)

func main() {
	log.SetFlags(log.Ltime)
	log.SetPrefix("trusted-server: ")
	httpAddr := flag.String("http", ":8080", "Web Services listen address")
	pushAddr := flag.String("push", ":9090", "Pusher listen address for vehicle ECMs")
	dataDir := flag.String("data-dir", "", "journal + snapshot directory for durable state (empty = memory-only)")
	drainTimeout := flag.Duration("drain-timeout", 10*time.Second, "graceful-shutdown budget for in-flight HTTP requests")
	shard := flag.String("shard", "", "shard name in a federated control plane (empty = standalone)")
	role := flag.String("role", "leader", "shard role: leader or follower")
	peers := flag.String("peers", "", "comma-separated name=baseURL follower list the leader replicates to")
	flag.Parse()

	switch *role {
	case "leader":
		runLeader(*httpAddr, *pushAddr, *dataDir, *shard, *peers, *drainTimeout)
	case "follower":
		runFollower(*httpAddr, *pushAddr, *dataDir, *shard, *drainTimeout)
	default:
		log.Fatalf("unknown -role %q (want leader or follower)", *role)
	}
}

// parsePeers splits "name=http://host:port,name2=..." into followers.
func parsePeers(peers string) ([]journal.Follower, error) {
	if peers == "" {
		return nil, nil
	}
	var out []journal.Follower
	for _, p := range strings.Split(peers, ",") {
		name, base, ok := strings.Cut(strings.TrimSpace(p), "=")
		if !ok || name == "" || base == "" {
			return nil, errors.New("peer entries must be name=baseURL")
		}
		out = append(out, journal.Follower{Name: name, T: federation.NewHTTPTransport(base, 0)})
	}
	return out, nil
}

func runLeader(httpAddr, pushAddr, dataDir, shard, peers string, drainTimeout time.Duration) {
	srv := server.New()
	srv.SetLogger(log.Printf)
	if shard != "" {
		srv.SetShard(shard)
	}
	if dataDir != "" {
		if err := srv.OpenJournal(dataDir); err != nil {
			log.Fatalf("opening journal: %v", err)
		}
		st := srv.RecoveryStats()
		log.Printf("durable state in %s: %d records replayed, %d operations interrupted, torn tail: %v",
			dataDir, st.Records, st.Interrupted, st.TornTail)
		if shard != "" {
			if err := srv.BecomeLeader("boot"); err != nil {
				log.Fatalf("claiming leadership epoch: %v", err)
			}
		}
	}
	followers, err := parsePeers(peers)
	if err != nil {
		log.Fatalf("parsing -peers: %v", err)
	}
	if len(followers) > 0 {
		if _, err := srv.StartReplication(followers, journal.ShipperOptions{Synchronous: true, Logf: log.Printf}); err != nil {
			log.Fatalf("starting replication: %v", err)
		}
		log.Printf("replicating synchronously to %d follower(s)", len(followers))
	}

	pl, err := net.Listen("tcp", pushAddr)
	if err != nil {
		log.Fatalf("pusher listen: %v", err)
	}
	log.Printf("pusher listening on %s", pl.Addr())
	go srv.Pusher().Serve(pl)

	serveHTTP(httpAddr, srv.Handler(), drainTimeout, func() {
		pl.Close()
		if err := srv.Close(); err != nil && !errors.Is(err, net.ErrClosed) {
			log.Printf("closing server: %v", err)
		}
	})
}

func runFollower(httpAddr, pushAddr, dataDir, shard string, drainTimeout time.Duration) {
	if dataDir == "" {
		log.Fatal("-role follower requires -data-dir (the replica journal directory)")
	}
	node, err := federation.NewFollowerNode(federation.FollowerOptions{
		Shard:    shard,
		Name:     httpAddr,
		Dir:      dataDir,
		PushAddr: pushAddr,
		Logf:     log.Printf,
	})
	if err != nil {
		log.Fatalf("opening replica: %v", err)
	}
	log.Printf("follower for shard %q replicating into %s (promote with POST /v1/promote)", shard, dataDir)
	serveHTTP(httpAddr, node, drainTimeout, func() {
		if err := node.Close(); err != nil {
			log.Printf("closing follower: %v", err)
		}
	})
}

// serveHTTP runs the handler until SIGINT/SIGTERM or listener death,
// then drains in-flight requests and calls shutdown.
func serveHTTP(addr string, h http.Handler, drainTimeout time.Duration, shutdown func()) {
	// Request contexts end when the drain begins, so an operation read
	// held with ?wait= answers at once instead of holding the drain for
	// up to api.MaxWait.
	reqCtx, endRequests := context.WithCancel(context.Background())
	defer endRequests()
	httpSrv := &http.Server{Addr: addr, Handler: h, BaseContext: func(net.Listener) context.Context { return reqCtx }}
	httpSrv.RegisterOnShutdown(endRequests)
	errc := make(chan error, 1)
	go func() {
		log.Printf("web services listening on %s", addr)
		errc <- httpSrv.ListenAndServe()
	}()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-errc:
		// The listener died on its own; still flush the journal before
		// exiting so no durable state is lost.
		shutdown()
		log.Fatal(err)
	case <-ctx.Done():
	}
	stop()
	log.Printf("shutting down")

	// Drain in order: stop accepting HTTP work, close the vehicle
	// listener and links, then flush and close the journal.
	drainCtx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	if err := httpSrv.Shutdown(drainCtx); err != nil {
		log.Printf("http drain: %v", err)
	}
	shutdown()
	log.Printf("bye")
}
