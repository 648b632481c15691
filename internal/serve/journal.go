// Durable sessions: the serve layer's view of the decision journal.
//
// With Options.JournalDir set, every session appends its lifecycle to an
// internal/journal store — the opening spec, each observation/decision
// pair, each topology event/decision pair, and periodic planner-state
// checkpoints that compaction truncates the history down to. On boot the
// daemon replays every journal it finds: it rebuilds the session from the
// journaled spec (and the latest checkpoint) and re-feeds the
// observations and topology events through the planning core. Because the
// core is deterministic, the recomputed decisions must be byte-identical
// to the journaled ones — replay verifies that record by record, and
// verifies the state digest at each checkpoint, so a corrupted journal, a
// record of an unknown kind or a decision-moving code change fails loudly
// at boot instead of silently resurrecting a diverged session. A session
// that fails verification is dropped (journal removed, failure counted);
// the daemon still boots.
//
// Journaled payloads deliberately exclude wall-clock measurements
// (SolveSeconds, RecoverySeconds): they are not reproducible, and replay
// compares bytes.
package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"
	"time"

	"laermoe/internal/faults"
	"laermoe/internal/journal"
	"laermoe/internal/trace"
	"laermoe/internal/training"
)

// openRecord is a KindOpen payload: the server-assigned sequence number
// (so restarts never reissue a replayed session's id) and the spec as the
// client posted it (pre-defaults — replay applies the same defaulting).
type openRecord struct {
	Seq  uint64      `json:"seq"`
	Spec SessionSpec `json:"spec"`
}

// observeRecord is a KindObserve payload: one epoch's posted routing.
type observeRecord struct {
	Routing [][][]int `json:"routing"`
}

// deltaObserveRecord is a KindObserveDelta payload: one epoch's
// observation as sparse per-layer deltas against the previous one —
// either a client's routing_delta verbatim, or the server-computed diff
// of a dense post when that journals smaller. Epoch is the epoch the
// observation is for; replay re-checks it against the rebuilt session so
// a delta can never silently apply onto the wrong base.
type deltaObserveRecord struct {
	Epoch  int                `json:"epoch"`
	Deltas []*trace.WireDelta `json:"deltas"`
}

// baselineRecord is a KindBaseline payload: the dense retained observation
// written alongside a compaction checkpoint, so delta records appended
// after the rewrite still have matrices to apply onto at replay.
type baselineRecord struct {
	Routing [][][]int `json:"routing"`
}

// decisionRecord is a KindDecision payload: the reproducible part of an
// ObserveResponse. Replay recomputes and byte-compares it.
type decisionRecord struct {
	Epoch       int                      `json:"epoch"`
	Boundary    []training.LayerDecision `json:"boundary"`
	Observation []training.LayerDecision `json:"observation"`
	Summary     training.EpochSummary    `json:"summary"`
}

// journalSummary strips the solve-path counters from a summary before it
// is journaled or replay-compared. Like SolveSeconds, they are telemetry
// about how a decision was reached, not part of the decision: a session
// restored from a state checkpoint starts with cold drift trackers and
// takes full solves on its first epoch, so the counters legitimately
// differ between the original run and a replayed one.
func journalSummary(s training.EpochSummary) training.EpochSummary {
	s.IncrementalSolves, s.FullSolves = 0, 0
	return s
}

// topologyRecord is a KindTopology payload: the normalized fault events.
type topologyRecord struct {
	Events []faults.Event `json:"events"`
}

// topologyDecisionRecord is a KindTopologyDecision payload: the
// reproducible part of a TopologyUpdateResponse.
type topologyDecisionRecord struct {
	Decisions             []training.LayerDecision `json:"decisions"`
	AvailableDevices      int                      `json:"available_devices"`
	RecoveryChargeSeconds float64                  `json:"recovery_charge_seconds"`
}

// stateRecord is a KindState payload: a full planner-state checkpoint
// standing in for the records compaction truncated away. Replay restores
// the planner from it and verifies the recorded digest against the
// restored state.
type stateRecord struct {
	Epochs           int                    `json:"epochs"`
	Digest           string                 `json:"digest"`
	AvailableDevices int                    `json:"available_devices"`
	FaultEvents      int                    `json:"fault_events"`
	State            *training.PlannerState `json:"state"`
}

// replayJournal restores every journaled session into s.sessions. It runs
// from New, before the server accepts requests or starts the janitor, so
// it touches server state without locking. Only a store-level failure
// (unreadable directory) is an error; a session whose journal is corrupt
// or whose replay diverges is dropped and counted, and the boot proceeds.
func (s *Server) replayJournal() error {
	ids, err := s.store.List()
	if err != nil {
		return err
	}
	if len(ids) == 0 {
		return nil
	}
	sort.Strings(ids)
	start := time.Now()
	var maxSeq uint64
	dropped := 0
	for _, id := range ids {
		sess, err := s.replaySession(id)
		if err != nil {
			s.metrics.replayFailed()
			s.logf("session %s: journal replay failed: %v (dropping journal)", id, err)
			if rerr := s.store.Remove(id); rerr != nil {
				s.logf("session %s: removing failed journal: %v", id, rerr)
			}
			dropped++
			continue
		}
		s.sessions[id] = sess
		s.metrics.sessionReplayed()
		if sess.seq > maxSeq {
			maxSeq = sess.seq
		}
	}
	// Resume id assignment past every replayed session, so a fresh open
	// after restart can never collide with a restored id.
	if s.seq < maxSeq {
		s.seq = maxSeq
	}
	elapsed := time.Since(start)
	s.metrics.replayFinished(elapsed.Seconds())
	s.logf("journal replay: %d sessions restored, %d dropped in %s",
		len(s.sessions), dropped, elapsed.Round(time.Millisecond))
	return nil
}

// replaySession rebuilds one session from its journal and verifies the
// byte-identity contract along the way. On success the session's writer
// is positioned after the last intact record (any torn tail truncated)
// and journaling resumes seamlessly.
func (s *Server) replaySession(id string) (*session, error) {
	w, recs, err := s.store.OpenAppend(id)
	if err != nil {
		return nil, err
	}
	if len(recs) == 0 {
		return nil, fmt.Errorf("journal is empty")
	}
	if recs[0].Kind != journal.KindOpen {
		return nil, fmt.Errorf("journal starts with %q, want %q", recs[0].Kind, journal.KindOpen)
	}
	var open openRecord
	if err := recs[0].Decode(&open); err != nil {
		return nil, err
	}
	sess, err := newSession(id, open.Seq, open.Spec, s.pool)
	if err != nil {
		return nil, fmt.Errorf("rebuilding from journaled spec: %w", err)
	}
	sess.attach(s)

	// Re-feed the event stream. An observe/topology record is acted on
	// when its decision record arrives: the writer appends both after a
	// successful solve, so an input record without a decision can only be
	// the torn trace of an append the client never saw acknowledged —
	// skipping it recovers the last acknowledged state. That matters twice
	// for deltas: a torn delta must not mutate the retained matrices
	// (applyDeltaLocked runs only on the decision), or every later epoch
	// would diverge from the state the client last had acknowledged.
	var (
		pendingObs   *observeRecord
		pendingDelta *deltaObserveRecord
		pendingTopo  *topologyRecord
	)
	for _, rec := range recs[1:] {
		switch rec.Kind {
		case journal.KindObserve:
			pendingObs, pendingDelta = &observeRecord{}, nil
			if err := rec.Decode(pendingObs); err != nil {
				return nil, err
			}
		case journal.KindObserveDelta:
			pendingDelta, pendingObs = &deltaObserveRecord{}, nil
			if err := rec.Decode(pendingDelta); err != nil {
				return nil, err
			}
		case journal.KindBaseline:
			var base baselineRecord
			if err := rec.Decode(&base); err != nil {
				return nil, err
			}
			if err := sess.validateObserve(ObserveRequest{Routing: base.Routing}); err != nil {
				return nil, fmt.Errorf("record %d: baseline: %w", rec.Seq, err)
			}
			sess.applyDenseLocked(base.Routing)
			sess.haveBase = true
		case journal.KindDecision:
			switch {
			case pendingObs != nil:
				req := ObserveRequest{Routing: pendingObs.Routing}
				if err := sess.validateObserve(req); err != nil {
					return nil, fmt.Errorf("record %d: %w", rec.Seq, err)
				}
				sess.applyDenseLocked(pendingObs.Routing)
			case pendingDelta != nil:
				req := ObserveRequest{Epoch: pendingDelta.Epoch, RoutingDelta: pendingDelta.Deltas}
				if err := sess.validateObserve(req); err != nil {
					return nil, fmt.Errorf("record %d: %w", rec.Seq, err)
				}
				if err := sess.applyDeltaLocked(pendingDelta.Epoch, pendingDelta.Deltas); err != nil {
					return nil, fmt.Errorf("record %d: %w", rec.Seq, err)
				}
			default:
				return nil, fmt.Errorf("record %d: decision without a preceding observation", rec.Seq)
			}
			resp, err := sess.planLocked(sess.routing)
			if err != nil {
				return nil, fmt.Errorf("record %d: replaying epoch: %w", rec.Seq, err)
			}
			sess.haveBase = true
			got, err := json.Marshal(decisionRecord{
				Epoch:       resp.Epoch,
				Boundary:    resp.Boundary,
				Observation: resp.Observation,
				Summary:     journalSummary(resp.Summary),
			})
			if err != nil {
				return nil, err
			}
			if !bytes.Equal(got, rec.Payload) {
				return nil, fmt.Errorf("record %d: replayed decision diverges from journal (epoch %d)", rec.Seq, resp.Epoch)
			}
			pendingObs, pendingDelta = nil, nil
		case journal.KindTopology:
			pendingTopo = &topologyRecord{}
			if err := rec.Decode(pendingTopo); err != nil {
				return nil, err
			}
		case journal.KindTopologyDecision:
			if pendingTopo == nil {
				return nil, fmt.Errorf("record %d: topology decision without preceding events", rec.Seq)
			}
			resp, err := sess.applyTopologyLocked(pendingTopo.Events)
			if err != nil {
				return nil, fmt.Errorf("record %d: replaying topology update: %w", rec.Seq, err)
			}
			got, err := json.Marshal(topologyDecisionRecord{
				Decisions:             resp.Decisions,
				AvailableDevices:      resp.AvailableDevices,
				RecoveryChargeSeconds: resp.RecoveryChargeSeconds,
			})
			if err != nil {
				return nil, err
			}
			if !bytes.Equal(got, rec.Payload) {
				return nil, fmt.Errorf("record %d: replayed recovery decision diverges from journal", rec.Seq)
			}
			pendingTopo = nil
		case journal.KindState:
			var st stateRecord
			if err := rec.Decode(&st); err != nil {
				return nil, err
			}
			if err := sess.core.RestoreState(st.State); err != nil {
				return nil, fmt.Errorf("record %d: restoring planner state: %w", rec.Seq, err)
			}
			if digest := fmt.Sprintf("%016x", sess.core.StateDigest()); digest != st.Digest {
				return nil, fmt.Errorf("record %d: restored state digest %s diverges from checkpoint %s", rec.Seq, digest, st.Digest)
			}
			sess.info.Epochs = st.Epochs
			sess.info.AvailableDevices = st.AvailableDevices
			sess.info.FaultEvents = st.FaultEvents
			// A state checkpoint alone carries no retained observation; a
			// KindBaseline record restores it when the compaction had one.
			sess.haveBase = false
		default:
			return nil, fmt.Errorf("record %d: unknown kind %q", rec.Seq, rec.Kind)
		}
	}
	// Journaling resumes only now: the replay loop above must never
	// re-append the records it is reading.
	sess.jw = w
	return sess, nil
}
