package server

import "dynautosar/internal/api"

// The /v1/statz counters: cheap monotonic process-lifetime tallies the
// monitoring plane (and the fleet simulator's measurement layer) scrapes
// on an interval. Unlike /v1/healthz these are not journal-backed — they
// reset to zero on restart, which is exactly what a rate collector
// wants.

// opOutcomeKey buckets a terminal operation for the OpsSettled counter:
// "ok" for success, the stable error code when the failure carries one,
// "failed" for nack-only failures (the nack reasons are free text, not
// stable codes).
func opOutcomeKey(rec *opRecord) string {
	if rec.op.State == api.StateSucceeded {
		return "ok"
	}
	if rec.op.Error != nil {
		return string(rec.op.Error.Code)
	}
	return "failed"
}

// noteOpCreatedLocked and noteOpSettledLocked maintain the statz
// tallies; called with Server.mu held at every registry transition so
// the counters cannot drift from the registry itself.
func (s *Server) noteOpCreatedLocked(n int) { s.statOpsCreated += uint64(n) }

func (s *Server) noteOpSettledLocked(rec *opRecord) {
	if s.statOpsSettled == nil {
		s.statOpsSettled = make(map[string]uint64)
	}
	s.statOpsSettled[opOutcomeKey(rec)]++
}

// Statz snapshots the monitoring counters.
func (s *Server) Statz() api.Statz {
	s.mu.Lock()
	st := api.Statz{
		OpsCreated:  s.statOpsCreated,
		PendingAcks: len(s.pending),
	}
	if len(s.statOpsSettled) > 0 {
		st.OpsSettled = make(map[string]uint64, len(s.statOpsSettled))
		for code, n := range s.statOpsSettled {
			st.OpsSettled[code] = n
		}
	}
	// Counted from the registry, not derived from the counters: ops
	// recovered from the journal were created by a previous process and
	// are missing from OpsCreated, so subtraction would drift.
	for _, rec := range s.ops {
		if !rec.op.Done {
			st.OpsOpen++
		}
	}
	s.mu.Unlock()

	st.VehiclesConnected, st.PushesSent = s.pusher.Stats()
	if s.jn != nil {
		js := s.jn.Stats()
		st.JournalRecords = js.Appended
		st.JournalCommits = js.Flushes
		st.JournalSinceSnapshot = js.SinceSnapshot
		st.JournalGen = js.Gen
		st.JournalImageBytes = js.ImageBytes
		st.JournalSegmentBytes = js.SegmentBytes
	}
	st.Shard, st.Role, st.ShardEpoch = s.ShardInfo()
	// Replication lag aggregates across followers: the worst byte lag
	// and the oldest segment fully shipped anywhere, so one scrape says
	// whether a failover right now would lose acknowledged writes (it
	// cannot, in synchronous mode — lag stays at zero between commits —
	// unless a follower fell out of sync, which ReplAsyncCommits counts).
	s.mu.Lock()
	sh := s.shipper
	s.mu.Unlock()
	if sh != nil {
		for _, f := range sh.Status() {
			if f.LagBytes > st.ReplLagBytes {
				st.ReplLagBytes = f.LagBytes
			}
			if st.LastSegmentShipped == 0 || f.LastShippedGen < st.LastSegmentShipped {
				st.LastSegmentShipped = f.LastShippedGen
			}
			st.ReplAsyncCommits += f.AsyncCommits
		}
	}
	return st
}
