package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"laermoe/internal/faults"
	"laermoe/internal/trace"
)

// decisionJSON is the byte-identity fingerprint of one epoch's decision:
// the reproducible fields of an ObserveResponse, marshaled — exactly what
// the journal stores and replay verifies. The solve-path counters are
// normalized out, like the wall-clock fields: a restarted session's drift
// trackers start cold, so how a decision was reached (incremental vs full
// solve) is not replay-stable — only the decision itself is.
func decisionJSON(t *testing.T, resp *ObserveResponse) string {
	t.Helper()
	b, err := json.Marshal(decisionRecord{
		Epoch:       resp.Epoch,
		Boundary:    resp.Boundary,
		Observation: resp.Observation,
		Summary:     journalSummary(resp.Summary),
	})
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestJournalReplayByteIdentity is the durability acceptance property: a
// daemon killed mid-stream (no Shutdown, no fsync barrier) and restarted
// on the same journal directory continues each session exactly where it
// stopped, and the decisions it issues from there are byte-identical to
// an uninterrupted daemon's. The kill point is randomized (seeded) so the
// restart lands on different snapshot/record alignments across policies.
func TestJournalReplayByteIdentity(t *testing.T) {
	const epochs = 5
	drift := trace.DriftConfig{Model: trace.DriftMigration}
	rng := rand.New(rand.NewSource(42))
	for _, policy := range []string{"warm", "predictive"} {
		t.Run(policy, func(t *testing.T) {
			split := 1 + rng.Intn(epochs-1)
			t.Logf("killing the daemon after %d/%d epochs", split, epochs)

			// Reference: one uninterrupted daemon, no journal.
			_, ref := newTestServer(t, Options{})
			var refInfo SessionInfo
			ref.do("POST", "/v1/sessions", quickSpec(policy), http.StatusCreated, &refInfo)
			stream := observationStream(t, refInfo, epochs, 4, drift)
			want := make([]string, epochs)
			for e := 0; e < epochs; e++ {
				var resp ObserveResponse
				ref.do("POST", "/v1/sessions/"+refInfo.ID+"/observe",
					ObserveRequest{Routing: stream[e]}, http.StatusOK, &resp)
				want[e] = decisionJSON(t, &resp)
			}

			// Interrupted daemon: journal on, snapshots every 2 epochs so
			// replay crosses digest checkpoints, abandoned without Shutdown.
			dir := t.TempDir()
			jopts := Options{JournalDir: dir, SnapshotEvery: 2}
			_, ac := newTestServer(t, jopts)
			var info SessionInfo
			ac.do("POST", "/v1/sessions", quickSpec(policy), http.StatusCreated, &info)
			for e := 0; e < split; e++ {
				var resp ObserveResponse
				ac.do("POST", "/v1/sessions/"+info.ID+"/observe",
					ObserveRequest{Routing: stream[e]}, http.StatusOK, &resp)
				if got := decisionJSON(t, &resp); got != want[e] {
					t.Fatalf("pre-kill epoch %d diverges from reference:\n got: %s\nwant: %s", e, got, want[e])
				}
			}

			// Restart on the same journal directory.
			b, bc := newTestServer(t, jopts)
			var restored SessionInfo
			bc.do("GET", "/v1/sessions/"+info.ID, nil, http.StatusOK, &restored)
			if restored.Epochs != split {
				t.Fatalf("restored session is at epoch %d, want %d", restored.Epochs, split)
			}
			replayed, failures := b.metrics.sessionsReplayed.Load(), b.metrics.replayFailures.Load()
			if replayed != 1 || failures != 0 {
				t.Fatalf("replay metrics: %d restored, %d failed", replayed, failures)
			}
			for e := split; e < epochs; e++ {
				var resp ObserveResponse
				bc.do("POST", "/v1/sessions/"+info.ID+"/observe",
					ObserveRequest{Routing: stream[e]}, http.StatusOK, &resp)
				if got := decisionJSON(t, &resp); got != want[e] {
					t.Fatalf("post-restart epoch %d diverges from reference:\n got: %s\nwant: %s", e, got, want[e])
				}
			}
		})
	}
}

// journalKinds parses a raw journal file into its record-kind sequence.
func journalKinds(t *testing.T, path string) []string {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var kinds []string
	for _, line := range bytes.Split(bytes.TrimSpace(raw), []byte("\n")) {
		var rec struct {
			Kind string `json:"k"`
		}
		if err := json.Unmarshal(line, &rec); err != nil {
			t.Fatalf("journal line %q: %v", line, err)
		}
		kinds = append(kinds, rec.Kind)
	}
	return kinds
}

// TestJournalCompaction: each state checkpoint rewrites the journal down
// to [open, state, tail...], so a long-lived session's journal stays
// bounded by the snapshot interval instead of growing with its history —
// and a restart from the compacted journal continues byte-identically.
func TestJournalCompaction(t *testing.T) {
	const epochs = 7 // snapshots at 2, 4, 6; one uncompacted epoch after
	drift := trace.DriftConfig{Model: trace.DriftMigration}
	dir := t.TempDir()
	jopts := Options{JournalDir: dir, SnapshotEvery: 2}
	_, ac := newTestServer(t, jopts)
	var info SessionInfo
	ac.do("POST", "/v1/sessions", quickSpec("warm"), http.StatusCreated, &info)
	stream := observationStream(t, info, epochs+1, 4, drift)
	for e := 0; e < epochs; e++ {
		ac.do("POST", "/v1/sessions/"+info.ID+"/observe",
			ObserveRequest{Routing: stream[e]}, http.StatusOK, nil)
	}

	// After 7 epochs with SnapshotEvery=2 the journal must be the last
	// checkpoint plus the one epoch journaled since: open, state, the
	// dense baseline the checkpoint retains for delta ingest, and a
	// single observe/decision pair — not 1+7*2 records of history.
	kinds := journalKinds(t, filepath.Join(dir, info.ID+".jnl"))
	wantKinds := []string{"open", "state", "baseline", "observe", "decision"}
	if len(kinds) != len(wantKinds) {
		t.Fatalf("compacted journal holds %d records %v, want %v", len(kinds), kinds, wantKinds)
	}
	for i := range kinds {
		if kinds[i] != wantKinds[i] {
			t.Fatalf("compacted journal kinds %v, want %v", kinds, wantKinds)
		}
	}

	// Restart on the compacted journal: replay restores the checkpoint,
	// re-feeds only the tail, and the next decision is byte-identical to
	// the uninterrupted run's.
	b, bc := newTestServer(t, jopts)
	var restored SessionInfo
	bc.do("GET", "/v1/sessions/"+info.ID, nil, http.StatusOK, &restored)
	if restored.Epochs != epochs {
		t.Fatalf("restored session at epoch %d, want %d", restored.Epochs, epochs)
	}
	failures := b.metrics.replayFailures.Load()
	if failures != 0 {
		t.Fatalf("%d replay failures on a compacted journal", failures)
	}
	var ref ObserveResponse
	ac.do("POST", "/v1/sessions/"+info.ID+"/observe",
		ObserveRequest{Routing: stream[epochs]}, http.StatusOK, &ref)
	var resp ObserveResponse
	bc.do("POST", "/v1/sessions/"+info.ID+"/observe",
		ObserveRequest{Routing: stream[epochs]}, http.StatusOK, &resp)
	if got, want := decisionJSON(t, &resp), decisionJSON(t, &ref); got != want {
		t.Fatalf("post-compaction restart diverges:\n got: %s\nwant: %s", got, want)
	}
}

// TestJournalReplayWithTopology: fault events and their recovery
// decisions replay too — a restarted session keeps its degraded topology
// and fault accounting.
func TestJournalReplayWithTopology(t *testing.T) {
	drift := trace.DriftConfig{Model: trace.DriftMigration}
	dir := t.TempDir()
	jopts := Options{JournalDir: dir, SnapshotEvery: 2}
	_, ac := newTestServer(t, jopts)
	var info SessionInfo
	ac.do("POST", "/v1/sessions", quickSpec("warm"), http.StatusCreated, &info)
	stream := observationStream(t, info, 3, 4, drift)
	var first ObserveResponse
	ac.do("POST", "/v1/sessions/"+info.ID+"/observe",
		ObserveRequest{Routing: stream[0]}, http.StatusOK, &first)
	var tresp TopologyUpdateResponse
	ac.do("POST", "/v1/sessions/"+info.ID+"/topology",
		TopologyUpdateRequest{Events: []faults.Event{{Kind: faults.NodeFail, Node: 1}}},
		http.StatusOK, &tresp)
	if tresp.AvailableDevices != 24 {
		t.Fatalf("post-fault available devices = %d, want 24", tresp.AvailableDevices)
	}

	// Kill (abandon) and restart: the degraded topology must survive.
	_, bc := newTestServer(t, jopts)
	var restored SessionInfo
	bc.do("GET", "/v1/sessions/"+info.ID, nil, http.StatusOK, &restored)
	if restored.Epochs != 1 || restored.AvailableDevices != 24 || restored.FaultEvents != 1 {
		t.Fatalf("restored session lost topology state: %+v", restored)
	}
}

// TestJournalClosedSessionsStayClosed: closing (or evicting) a session
// removes its journal, so it does not resurrect on restart — and the id
// sequence resumes past every replayed session, so a fresh open after
// restart can never collide with a restored id.
func TestJournalClosedSessionsStayClosed(t *testing.T) {
	dir := t.TempDir()
	jopts := Options{JournalDir: dir}
	a, ac := newTestServer(t, jopts)
	var s1, s2 SessionInfo
	ac.do("POST", "/v1/sessions", quickSpec("warm"), http.StatusCreated, &s1)
	ac.do("POST", "/v1/sessions", quickSpec("warm"), http.StatusCreated, &s2)
	ac.do("DELETE", "/v1/sessions/"+s1.ID, nil, http.StatusOK, nil)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := a.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}

	_, bc := newTestServer(t, jopts)
	var list struct {
		Sessions []SessionInfo `json:"sessions"`
	}
	bc.do("GET", "/v1/sessions", nil, http.StatusOK, &list)
	if len(list.Sessions) != 1 || list.Sessions[0].ID != s2.ID {
		t.Fatalf("restart restored %+v, want only %s", list.Sessions, s2.ID)
	}
	var s3 SessionInfo
	bc.do("POST", "/v1/sessions", quickSpec("warm"), http.StatusCreated, &s3)
	if s3.ID == s1.ID || s3.ID == s2.ID {
		t.Fatalf("fresh session reused id %s", s3.ID)
	}
}

// TestJournalCorruptionDropsSession: a journal whose records were
// tampered with fails replay; the daemon still boots, counts the failure,
// and deletes the bad journal so the next boot is clean. Each tamper is a
// same-length kind rename, so the journal layer still parses every line
// (seqs intact) and only the serve layer's replay can reject the stream.
func TestJournalCorruptionDropsSession(t *testing.T) {
	cases := []struct {
		name     string
		from, to string
		reason   string // the logged replay failure
	}{
		// The opening record: replay refuses the stream before building
		// the session.
		{"open kind", `"k":"open"`, `"k":"oper"`, `journal starts with "oper"`},
		// A record in the middle of the journal: the first epoch's
		// decision becomes a digest-only "snapshot" record, a kind nothing
		// writes any more, so it lands in replay's unknown-kind branch.
		{"mid-journal kind", `"k":"decision"`, `"k":"snapshot"`, `record 3: unknown kind "snapshot"`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			a, ac := newTestServer(t, Options{JournalDir: dir})
			var info SessionInfo
			ac.do("POST", "/v1/sessions", quickSpec("warm"), http.StatusCreated, &info)
			stream := observationStream(t, info, 2, 4, trace.DriftConfig{Model: trace.DriftNone})
			for _, obs := range stream {
				ac.do("POST", "/v1/sessions/"+info.ID+"/observe",
					ObserveRequest{Routing: obs}, http.StatusOK, nil)
			}
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			if err := a.Shutdown(ctx); err != nil {
				t.Fatal(err)
			}

			path := filepath.Join(dir, info.ID+".jnl")
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			tampered := bytes.Replace(raw, []byte(tc.from), []byte(tc.to), 1)
			if bytes.Equal(tampered, raw) {
				t.Fatal("tamper target not found in journal")
			}
			if err := os.WriteFile(path, tampered, 0o644); err != nil {
				t.Fatal(err)
			}

			var logs bytes.Buffer
			b, bc := newTestServer(t, Options{JournalDir: dir, Log: log.New(&logs, "", 0)})
			bc.do("GET", "/v1/sessions/"+info.ID, nil, http.StatusNotFound, nil)
			replayed, failures := b.metrics.sessionsReplayed.Load(), b.metrics.replayFailures.Load()
			if replayed != 0 || failures != 1 {
				t.Fatalf("replay metrics: %d restored, %d failed", replayed, failures)
			}
			if !strings.Contains(logs.String(), tc.reason) {
				t.Fatalf("replay log %q does not name the failure %q", logs.String(), tc.reason)
			}
			if _, err := os.Stat(path); !os.IsNotExist(err) {
				t.Fatalf("failed journal not removed (stat err %v)", err)
			}
		})
	}
}

// TestJournalDivergenceDropsSession: a journal whose *decision* bytes
// don't match what replay recomputes — a tampered summary field here,
// standing in for any silent divergence — is rejected by the
// record-by-record byte compare.
func TestJournalDivergenceDropsSession(t *testing.T) {
	dir := t.TempDir()
	jopts := Options{JournalDir: dir}
	a, ac := newTestServer(t, jopts)
	var info SessionInfo
	ac.do("POST", "/v1/sessions", quickSpec("warm"), http.StatusCreated, &info)
	stream := observationStream(t, info, 1, 4, trace.DriftConfig{Model: trace.DriftNone})
	ac.do("POST", "/v1/sessions/"+info.ID+"/observe",
		ObserveRequest{Routing: stream[0]}, http.StatusOK, nil)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := a.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(dir, info.ID+".jnl")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	tampered := bytes.Replace(raw, []byte(`"epoch":0`), []byte(`"epoch":9`), 1)
	if bytes.Equal(tampered, raw) {
		t.Fatal("tamper target not found in journal")
	}
	if err := os.WriteFile(path, tampered, 0o644); err != nil {
		t.Fatal(err)
	}

	b, bc := newTestServer(t, jopts)
	bc.do("GET", "/v1/sessions/"+info.ID, nil, http.StatusNotFound, nil)
	failures := b.metrics.replayFailures.Load()
	if failures != 1 {
		t.Fatalf("divergent journal not counted as a replay failure (%d)", failures)
	}
}

// TestJournalEvictionRemovesJournal: the TTL janitor's eviction path also
// deletes the journal.
func TestJournalEvictionRemovesJournal(t *testing.T) {
	dir := t.TempDir()
	_, ac := newTestServer(t, Options{JournalDir: dir, SessionTTL: 30 * time.Millisecond})
	var info SessionInfo
	ac.do("POST", "/v1/sessions", quickSpec("warm"), http.StatusCreated, &info)
	path := filepath.Join(dir, info.ID+".jnl")
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("journal not created: %v", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, err := os.Stat(path); os.IsNotExist(err) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("evicted session's journal still on disk")
		}
		time.Sleep(10 * time.Millisecond)
	}
	ac.do("GET", "/v1/sessions/"+info.ID, nil, http.StatusNotFound, nil)
}

// TestJournalTornTailRecovers: a crash mid-append leaves a partial final
// line; the restart replays the intact prefix and keeps serving.
func TestJournalTornTailRecovers(t *testing.T) {
	dir := t.TempDir()
	jopts := Options{JournalDir: dir}
	a, ac := newTestServer(t, jopts)
	var info SessionInfo
	ac.do("POST", "/v1/sessions", quickSpec("warm"), http.StatusCreated, &info)
	stream := observationStream(t, info, 2, 4, trace.DriftConfig{Model: trace.DriftMigration})
	ac.do("POST", "/v1/sessions/"+info.ID+"/observe",
		ObserveRequest{Routing: stream[0]}, http.StatusOK, nil)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := a.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}

	// Simulate the crash: append half an observe record.
	path := filepath.Join(dir, info.ID+".jnl")
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fmt.Fprintf(f, `{"n":4,"k":"observe","p":{"rout`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	_, bc := newTestServer(t, jopts)
	var restored SessionInfo
	bc.do("GET", "/v1/sessions/"+info.ID, nil, http.StatusOK, &restored)
	if restored.Epochs != 1 {
		t.Fatalf("restored session at epoch %d, want 1", restored.Epochs)
	}
	bc.do("POST", "/v1/sessions/"+info.ID+"/observe",
		ObserveRequest{Routing: stream[1]}, http.StatusOK, nil)
}
