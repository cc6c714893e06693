package server

import (
	"dynautosar/internal/api"
	"dynautosar/internal/journal"
)

// The server's federated-control-plane identity and the idempotency
// protocol that makes cross-failover retries safe (see DESIGN.md,
// "Federated control plane"). A sharded deployment runs one leader and
// one or more replication followers per shard; the leader journals a
// shard_epoch record every time it assumes leadership, so recovery on a
// promoted follower knows the highest epoch ever durable and continues
// the sequence instead of reusing it.

// SetShard assigns the server's shard identity at boot, before
// OpenJournal; the empty default means a standalone (unsharded)
// deployment and keeps every shard field out of healthz/statz.
func (s *Server) SetShard(shard string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.shardID = shard
	if s.shardRole == "" {
		s.shardRole = "leader"
	}
}

// BecomeLeader bumps the shard epoch past every epoch ever durable,
// journals the transition (reason: "boot", "restart" or "promoted") and
// waits for it to commit, so two servers can never both hold the same
// epoch of one shard. Called after OpenJournal — on a fresh leader's
// boot and on a follower's promotion, where the replicated journal it
// recovered from carries the dead leader's epochs.
func (s *Server) BecomeLeader(reason string) error {
	s.mu.Lock()
	s.shardEpoch++
	epoch := s.shardEpoch
	shard := s.shardID
	s.shardRole = "leader"
	s.mu.Unlock()
	if err := waitDurable(s.store.jn.Append(journal.ShardEpochRec(shard, epoch, reason))); err != nil {
		return err
	}
	s.logf("server: shard %s leader at epoch %d (%s)", shard, epoch, reason)
	return nil
}

// ShardInfo reports the server's shard identity: shard name, role and
// leadership epoch ("" names for a standalone server).
func (s *Server) ShardInfo() (shard, role string, epoch uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.shardID, s.shardRole, s.shardEpoch
}

// SetShipper attaches the journal replication shipper, whose
// per-follower progress healthz and statz surface.
func (s *Server) SetShipper(sh *journal.Shipper) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.shipper = sh
}

// StartReplication wires WAL shipping to this shard's followers: it
// builds a Shipper over the attached journal, taps the commit path (in
// synchronous mode every group commit reaches the followers before its
// durability tickets settle — the zero-loss failover guarantee) and
// surfaces per-follower progress in healthz/statz. Call after
// OpenJournal; Close shuts the shipper down with the journal.
func (s *Server) StartReplication(followers []journal.Follower, opts journal.ShipperOptions) (*journal.Shipper, error) {
	if s.jn == nil {
		return nil, api.Errorf(api.CodeFailedPrecondition, "server: replication needs a journal; call OpenJournal first")
	}
	if opts.Logf == nil {
		opts.Logf = s.logf
	}
	sh := journal.NewShipper(s.jn, followers, opts)
	s.jn.SetTap(sh)
	s.SetShipper(sh)
	return sh, nil
}

// replicationHealth snapshots the shipper's follower progress into the
// healthz wire shape; nil without a shipper.
func (s *Server) replicationHealth() []api.FollowerHealth {
	s.mu.Lock()
	sh := s.shipper
	s.mu.Unlock()
	if sh == nil {
		return nil
	}
	st := sh.Status()
	out := make([]api.FollowerHealth, 0, len(st))
	for _, f := range st {
		out = append(out, api.FollowerHealth{
			Name:              f.Name,
			LastShippedGen:    f.LastShippedGen,
			LastShippedOffset: f.LastShippedOffset,
			AckedGen:          f.AckedGen,
			AckedOffset:       f.AckedOffset,
			LagBytes:          f.LagBytes,
			Resyncs:           f.Resyncs,
			LastError:         f.LastError,
			AsyncCommits:      f.AsyncCommits,
		})
	}
	return out
}

// idemClaim is the state of one idempotency key: the operation it
// resolved to and a channel closed once the resolution is known, so a
// concurrent duplicate waits for the first create instead of racing it.
type idemClaim struct {
	opID string
	done chan struct{}
}

// settledClaim builds an already-resolved claim (recovery, rebinding).
func settledClaim(opID string) *idemClaim {
	ch := make(chan struct{})
	close(ch)
	return &idemClaim{opID: opID, done: ch}
}

// runIdempotent is the idempotency gate around one operation-creating
// request: an empty key passes straight through; a fresh key claims the
// slot and runs create (which must thread the key into newOperation, so
// the binding is journaled with the operation); a repeated key returns
// the original operation — even when the first response was lost to a
// crash or shard failover, because recovery rebuilds the bindings from
// the replicated op records. A failed create releases the key, so the
// retry that follows a real rejection runs fresh.
func (s *Server) runIdempotent(key string, create func(key string) (api.Operation, error)) (api.Operation, error) {
	if key == "" {
		return create("")
	}
	s.mu.Lock()
	c := s.idem[key]
	if c == nil {
		c = &idemClaim{done: make(chan struct{})}
		s.idem[key] = c
		s.mu.Unlock()
		op, err := create(key)
		s.mu.Lock()
		if err != nil {
			delete(s.idem, key)
		} else {
			c.opID = op.ID
		}
		close(c.done)
		s.mu.Unlock()
		return op, err
	}
	s.mu.Unlock()
	<-c.done
	s.mu.Lock()
	defer s.mu.Unlock()
	if c.opID == "" {
		// The concurrent twin failed and released the key; this caller
		// raced it, so have it retry rather than double-create.
		return api.Operation{}, api.Errorf(api.CodeUnavailable,
			"server: concurrent request with idempotency key %q failed; retry", key)
	}
	rec := s.ops[c.opID]
	if rec == nil {
		return api.Operation{}, api.Errorf(api.CodeFailedPrecondition,
			"server: operation %s of idempotency key %q was evicted from the registry", c.opID, key)
	}
	return snapshotOpLocked(rec), nil
}
