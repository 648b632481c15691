// Package journal is the durable, append-only event log behind
// laer-serve's restartable sessions. Each session owns one JSON-Lines
// file under the store directory: the opening spec, every observation and
// topology event the session absorbed, every decision it issued, and
// periodic planner-state checkpoints. Because the decision core
// (training.OnlinePlanner) is deterministic, a restarted daemon rebuilds
// each session by re-feeding its journal and lands on byte-identical
// planner state — the journal records decisions too, so the replay can
// *verify* that identity record by record instead of assuming it.
//
// Appends are fsync-batched (group commit): a record is written to the
// file immediately and acknowledged without waiting for fsync; one
// store-wide flusher fsyncs every dirty file at the configured interval,
// so a daemon serving hundreds of sessions pays a bounded number of
// fsyncs per interval instead of one per request. A hard crash can lose
// at most the final interval's records; readers tolerate the torn tail
// such a crash leaves (see Read), and a graceful shutdown syncs
// everything (see Close).
package journal

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"
)

// Kind names one record type. The vocabulary is owned here so journal
// files are self-describing independent of the serve layer.
type Kind string

const (
	// KindOpen is a session's first record: the client's session spec and
	// the server-assigned sequence number.
	KindOpen Kind = "open"
	// KindObserve is one epoch's posted observation (the per-layer routing
	// matrices), appended before the solve it drives.
	KindObserve Kind = "observe"
	// KindDecision is the re-layout decision an observation produced,
	// appended after the solve. Replay recomputes it and byte-compares.
	KindDecision Kind = "decision"
	// KindTopology is a batch of membership/degradation fault events.
	KindTopology Kind = "topology"
	// KindTopologyDecision is the forced recovery re-layout a topology
	// update produced.
	KindTopologyDecision Kind = "topology-decision"
	// KindState is a full planner-state checkpoint: enough to rebuild the
	// session without the records it replaces. Compaction (Rewrite)
	// truncates a session's replayed history down to its opening record
	// plus one of these.
	KindState Kind = "state"
	// KindObserveDelta is one epoch's observation expressed as sparse
	// per-layer wire deltas against the previous observation. Replay must
	// hold the prior epoch's dense matrices (from a KindObserve, a
	// KindBaseline, or earlier delta application) to act on one.
	KindObserveDelta Kind = "observe-delta"
	// KindBaseline is the retained dense observation written alongside a
	// compaction checkpoint so delta records appended after a Rewrite still
	// have matrices to apply onto.
	KindBaseline Kind = "baseline"
)

// Record is one journal line. Seq is the per-session record sequence,
// monotonically increasing from 1; readers stop at the first gap, which
// is how a torn tail (or any corruption past it) is fenced off.
type Record struct {
	Seq     uint64          `json:"n"`
	Kind    Kind            `json:"k"`
	Payload json.RawMessage `json:"p,omitempty"`
}

// Decode unmarshals the record payload into v.
func (r Record) Decode(v any) error {
	if len(r.Payload) == 0 {
		return fmt.Errorf("journal: record %d (%s) has no payload", r.Seq, r.Kind)
	}
	return json.Unmarshal(r.Payload, v)
}

// DefaultFsyncInterval is the group-commit cadence when Options leaves it
// zero: small enough that a crash loses only a few milliseconds of
// acknowledged work, large enough that a busy daemon batches many
// sessions' appends into each fsync round.
const DefaultFsyncInterval = 2 * time.Millisecond

// Options configures a Store.
type Options struct {
	// Dir is the journal directory (created if absent). One file per
	// session: <id>.jnl.
	Dir string

	// FsyncInterval is the group-commit cadence (0 = DefaultFsyncInterval).
	// A negative interval disables batching: every Append fsyncs before
	// returning — the strict mode tests use for deterministic durability.
	FsyncInterval time.Duration
}

// Store manages the per-session journal files of one directory and runs
// the shared fsync batcher. All methods are safe for concurrent use.
type Store struct {
	dir      string
	interval time.Duration

	mu      sync.Mutex
	writers map[string]*Writer
	dirty   map[*Writer]struct{}
	closed  bool

	stop chan struct{}
	done chan struct{}
}

// Open creates (or reopens) the journal directory and starts the fsync
// batcher.
func Open(opts Options) (*Store, error) {
	if opts.Dir == "" {
		return nil, fmt.Errorf("journal: empty directory")
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	interval := opts.FsyncInterval
	if interval == 0 {
		interval = DefaultFsyncInterval
	}
	st := &Store{
		dir:      opts.Dir,
		interval: interval,
		writers:  make(map[string]*Writer),
		dirty:    make(map[*Writer]struct{}),
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	if interval > 0 {
		go st.flushLoop()
	} else {
		close(st.done)
	}
	return st, nil
}

// Dir returns the store's directory.
func (st *Store) Dir() string { return st.dir }

func (st *Store) path(id string) string { return filepath.Join(st.dir, id+".jnl") }

// checkID rejects session ids that would escape the journal directory.
func checkID(id string) error {
	if id == "" || id == "." || id == ".." || strings.ContainsAny(id, "/\\") || id != filepath.Base(id) {
		return fmt.Errorf("journal: invalid session id %q", id)
	}
	return nil
}

// Create opens a fresh journal for a session, truncating any leftover
// file of the same id, and durably records the file's existence (the
// directory entry is fsynced).
func (st *Store) Create(id string) (*Writer, error) {
	if err := checkID(id); err != nil {
		return nil, err
	}
	f, err := os.OpenFile(st.path(id), os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	if err := st.syncDir(); err != nil {
		f.Close()
		return nil, err
	}
	return st.register(id, f, 0)
}

// OpenAppend reopens an existing session journal for appending: it reads
// the valid record prefix, truncates away any torn tail a crash left,
// and positions the writer after the last intact record. The records are
// returned so the caller can replay them without a second read.
func (st *Store) OpenAppend(id string) (*Writer, []Record, error) {
	if err := checkID(id); err != nil {
		return nil, nil, err
	}
	recs, valid, err := readRecords(st.path(id))
	if err != nil {
		return nil, nil, err
	}
	f, err := os.OpenFile(st.path(id), os.O_WRONLY, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("journal: %w", err)
	}
	if err := f.Truncate(valid); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("journal: truncating torn tail of %s: %w", id, err)
	}
	if _, err := f.Seek(valid, io.SeekStart); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("journal: %w", err)
	}
	var last uint64
	if len(recs) > 0 {
		last = recs[len(recs)-1].Seq
	}
	w, err := st.register(id, f, last)
	if err != nil {
		return nil, nil, err
	}
	return w, recs, nil
}

func (st *Store) register(id string, f *os.File, lastSeq uint64) (*Writer, error) {
	w := &Writer{st: st, id: id, f: f, seq: lastSeq}
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.closed {
		f.Close()
		return nil, fmt.Errorf("journal: store closed")
	}
	if old, ok := st.writers[id]; ok {
		old.close()
	}
	st.writers[id] = w
	return w, nil
}

// Remove closes a session's writer (if open) and deletes its journal —
// the close/evict path: a removed session must not resurrect on restart.
func (st *Store) Remove(id string) error {
	if err := checkID(id); err != nil {
		return err
	}
	st.mu.Lock()
	if w, ok := st.writers[id]; ok {
		delete(st.writers, id)
		delete(st.dirty, w)
		w.close()
	}
	st.mu.Unlock()
	if err := os.Remove(st.path(id)); err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("journal: %w", err)
	}
	return st.syncDir()
}

// RewriteRecord is one record of a Rewrite batch: a kind plus its
// payload, sequence numbers assigned fresh from 1.
type RewriteRecord struct {
	Kind    Kind
	Payload any
}

// Rewrite atomically replaces a session's journal with the given records,
// renumbered from sequence 1 — the compaction primitive: a session's
// replayed history collapses to its opening record plus a planner-state
// checkpoint. The replacement is crash-safe (temp file, fsync, rename,
// directory fsync): a crash at any point leaves either the old journal or
// the new one intact, never a mix. The returned writer is positioned
// after the last record and replaces any open writer for the id.
func (st *Store) Rewrite(id string, recs []RewriteRecord) (*Writer, error) {
	if err := checkID(id); err != nil {
		return nil, err
	}
	if len(recs) == 0 {
		return nil, fmt.Errorf("journal: rewrite of %s with no records", id)
	}
	tmpPath := st.path(id) + ".tmp"
	tmp, err := os.OpenFile(tmpPath, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	fail := func(err error) (*Writer, error) {
		tmp.Close()
		os.Remove(tmpPath)
		return nil, err
	}
	for i, rec := range recs {
		var raw json.RawMessage
		if rec.Payload != nil {
			b, err := json.Marshal(rec.Payload)
			if err != nil {
				return fail(fmt.Errorf("journal: %w", err))
			}
			raw = b
		}
		line, err := json.Marshal(Record{Seq: uint64(i) + 1, Kind: rec.Kind, Payload: raw})
		if err != nil {
			return fail(fmt.Errorf("journal: %w", err))
		}
		if _, err := tmp.Write(append(line, '\n')); err != nil {
			return fail(fmt.Errorf("journal: rewriting %s: %w", id, err))
		}
	}
	if err := tmp.Sync(); err != nil {
		return fail(fmt.Errorf("journal: syncing rewrite of %s: %w", id, err))
	}
	if err := tmp.Close(); err != nil {
		return fail(fmt.Errorf("journal: %w", err))
	}
	if err := os.Rename(tmpPath, st.path(id)); err != nil {
		os.Remove(tmpPath)
		return nil, fmt.Errorf("journal: installing rewrite of %s: %w", id, err)
	}
	if err := st.syncDir(); err != nil {
		return nil, err
	}
	f, err := os.OpenFile(st.path(id), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	return st.register(id, f, uint64(len(recs)))
}

// List returns the session ids with a journal on disk, in no particular
// order.
func (st *Store) List() ([]string, error) {
	entries, err := os.ReadDir(st.dir)
	if err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	var ids []string
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".jnl") {
			continue
		}
		ids = append(ids, strings.TrimSuffix(e.Name(), ".jnl"))
	}
	return ids, nil
}

// Read returns a session journal's valid record prefix. A torn tail —
// the partial final line a crash mid-write leaves — is not an error: the
// records before it are returned and the tail is ignored (OpenAppend
// additionally truncates it away).
func (st *Store) Read(id string) ([]Record, error) {
	if err := checkID(id); err != nil {
		return nil, err
	}
	recs, _, err := readRecords(st.path(id))
	return recs, err
}

// readRecords decodes the valid record prefix of one journal file and
// reports the byte offset where validity ends.
func readRecords(path string) ([]Record, int64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, fmt.Errorf("journal: %w", err)
	}
	defer f.Close()
	var (
		recs  []Record
		valid int64
		rd    = bufio.NewReaderSize(f, 1<<16)
	)
	for {
		line, err := rd.ReadBytes('\n')
		if err != nil {
			// A final line without its newline is a torn tail by
			// definition, even if it happens to parse: the crash may have
			// cut it anywhere.
			if err == io.EOF {
				return recs, valid, nil
			}
			return recs, valid, fmt.Errorf("journal: reading %s: %w", path, err)
		}
		var rec Record
		if json.Unmarshal(line, &rec) != nil || rec.Seq != uint64(len(recs))+1 {
			// Corrupt or out-of-sequence: fence off everything from here.
			return recs, valid, nil
		}
		recs = append(recs, rec)
		valid += int64(len(line))
	}
}

// SyncAll forces every open journal to stable storage — the graceful
// shutdown barrier.
func (st *Store) SyncAll() error {
	st.mu.Lock()
	ws := make([]*Writer, 0, len(st.writers))
	for _, w := range st.writers {
		ws = append(ws, w)
	}
	clear(st.dirty)
	st.mu.Unlock()
	var first error
	for _, w := range ws {
		if err := w.Sync(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Close syncs every journal, stops the fsync batcher and closes the
// files. The store is unusable afterwards.
func (st *Store) Close() error {
	st.mu.Lock()
	if st.closed {
		st.mu.Unlock()
		return nil
	}
	st.closed = true
	st.mu.Unlock()
	if st.interval > 0 {
		close(st.stop)
		<-st.done
	}
	err := st.SyncAll()
	st.mu.Lock()
	for id, w := range st.writers {
		w.close()
		delete(st.writers, id)
	}
	clear(st.dirty)
	st.mu.Unlock()
	return err
}

// flushLoop is the group-commit batcher: every interval it fsyncs the
// files dirtied since the previous round. When a round's fsyncs take
// longer than the interval the ticker simply drops ticks, so the loop
// self-throttles instead of queueing work.
func (st *Store) flushLoop() {
	defer close(st.done)
	t := time.NewTicker(st.interval)
	defer t.Stop()
	for {
		select {
		case <-st.stop:
			return
		case <-t.C:
			st.flushDirty()
		}
	}
}

func (st *Store) flushDirty() {
	st.mu.Lock()
	batch := make([]*Writer, 0, len(st.dirty))
	for w := range st.dirty {
		batch = append(batch, w)
	}
	clear(st.dirty)
	st.mu.Unlock()
	for _, w := range batch {
		w.Sync() // a sync failure is re-surfaced by the writer's next Append
	}
}

func (st *Store) markDirty(w *Writer) {
	st.mu.Lock()
	if !st.closed {
		st.dirty[w] = struct{}{}
	}
	st.mu.Unlock()
}

// syncDir fsyncs the journal directory so file creations/removals are
// durable, not just their contents.
func (st *Store) syncDir() error {
	d, err := os.Open(st.dir)
	if err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	return nil
}

// Writer appends records to one session's journal. Safe for concurrent
// use; in practice the serve layer serializes appends under the session
// mutex, which is what fixes record order to decision order.
type Writer struct {
	st *Store
	id string

	mu     sync.Mutex
	f      *os.File
	seq    uint64
	err    error // first write/sync failure; poisons the writer
	closed bool
}

// Seq returns the sequence number of the last appended (or replayed)
// record.
func (w *Writer) Seq() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.seq
}

// Append marshals payload and writes one record. In batched mode it
// returns once the bytes hit the file (the OS page cache) and durability
// follows within one fsync interval; in strict mode (negative interval)
// it fsyncs first. A failed writer stays failed: every later Append
// returns the first error.
func (w *Writer) Append(kind Kind, payload any) error {
	var raw json.RawMessage
	if payload != nil {
		b, err := json.Marshal(payload)
		if err != nil {
			return fmt.Errorf("journal: %w", err)
		}
		raw = b
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return w.err
	}
	if w.closed {
		return fmt.Errorf("journal: writer for %s is closed", w.id)
	}
	line, err := json.Marshal(Record{Seq: w.seq + 1, Kind: kind, Payload: raw})
	if err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	line = append(line, '\n')
	if _, err := w.f.Write(line); err != nil {
		w.err = fmt.Errorf("journal: appending to %s: %w", w.id, err)
		return w.err
	}
	w.seq++
	if w.st.interval < 0 {
		if err := w.f.Sync(); err != nil {
			w.err = fmt.Errorf("journal: syncing %s: %w", w.id, err)
			return w.err
		}
		return nil
	}
	w.st.markDirty(w)
	return nil
}

// Sync forces the journal to stable storage now.
func (w *Writer) Sync() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil || w.closed {
		return w.err
	}
	if err := w.f.Sync(); err != nil {
		w.err = fmt.Errorf("journal: syncing %s: %w", w.id, err)
		return w.err
	}
	return nil
}

func (w *Writer) close() {
	w.mu.Lock()
	defer w.mu.Unlock()
	if !w.closed {
		w.closed = true
		w.f.Close()
	}
}
