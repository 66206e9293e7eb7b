package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"time"

	"repro/internal/metrics"
	"repro/internal/report"
	"repro/internal/wal"
)

// Store is the durable session store: the session registry's lifecycle
// events in one journaled log (internal/wal.Log), DIR/sessions.wal, with
// DIR/quarantine/ beside it. The log owns replay, sequence numbers, tail
// repair, quarantine and compaction; this file owns what a session
// record means. Its contract to the server:
//
//   - An acknowledged Create/Delete/Padding is durable: the record is
//     appended and fsynced before the call returns, so a crash
//     immediately after cannot lose (or, for Delete, resurrect) the
//     session. The in-memory index changes only after a successful
//     append, so it never runs ahead of the file.
//
//   - Replay is absorbing: a create overwrites, a delete tombstones, and
//     padding merges max-monotonically — the windowed noise bound is
//     monotone in window width, so re-applying a stale record can only
//     be a no-op.
//
//   - Recovery is fail-soft: an unreplayable record is quarantined with
//     a reason and the boot continues with every healthy session. Only
//     an unusable directory refuses the boot — or one in the layout this
//     store replaced (MANIFEST + journal generations + sessions/*.snap),
//     which must never be booted empty over acknowledged sessions.
//
// Store methods are safe for concurrent use. The in-memory spec index
// mirrors the durable state so the server can list and lazily
// re-materialize persisted sessions (including ones LRU-evicted from
// memory) without touching disk on the read path.
type Store struct {
	logf  func(format string, args ...any)
	fsync *metrics.Histogram

	mu    sync.Mutex
	log   *wal.Log
	specs map[string]*sessionSpec
}

// sessionSpec is everything needed to re-materialize one session: the
// original create request and the cumulative window padding applied
// since.
type sessionSpec struct {
	Create  *CreateSessionRequest `json:"create"`
	Padding map[string]float64    `json:"padding,omitempty"`
	// keys are the create request's design and run keys: computed by the
	// create, or when a replayed create record is applied, and read by
	// every revive and delete after. They are not journaled.
	keys specKeys
	// restoredAt is the boot instant the spec was recovered from disk;
	// zero for specs created in this process's lifetime.
	restoredAt time.Time
}

func (sp *sessionSpec) clone() *sessionSpec {
	return &sessionSpec{Create: sp.Create, Padding: maps.Clone(sp.Padding), keys: sp.keys, restoredAt: sp.restoredAt}
}

// record is one journaled session lifecycle event.
type record struct {
	// Type is "create", "padding", or "delete".
	Type string `json:"type"`
	// Name is the session the event applies to.
	Name string `json:"name"`
	// Create carries the full CreateSessionRequest for "create" records —
	// everything needed to re-materialize the session from scratch.
	Create *CreateSessionRequest `json:"create,omitempty"`
	// Padding carries the cumulative per-net window padding: the whole
	// map on a "padding" record, and on the "create" record a compaction
	// writes per live session.
	Padding map[string]float64 `json:"padding,omitempty"`
}

const journalName = "sessions.wal"

// OpenStore opens (creating if needed) the data directory, replays the
// journal, and returns the store plus the recovery report that
// /v1/recovery serves. fsync, when set, observes every journal append.
func OpenStore(dir string, hooks wal.Hooks, fsync *metrics.Histogram, logf func(string, ...any)) (*Store, *report.RecoveryJSON, error) {
	path := filepath.Join(dir, journalName)
	if _, err := os.Stat(filepath.Join(dir, "MANIFEST")); err == nil {
		if _, err := os.Stat(path); errors.Is(err, os.ErrNotExist) {
			return nil, nil, fmt.Errorf("store: %s holds the MANIFEST/journal-N.wal/sessions/*.snap layout of an earlier snad, which this version cannot read; refusing to start empty over its sessions — serve it with the version that wrote it, or point -data-dir at a new directory", dir)
		}
	}
	st := &Store{logf: logf, fsync: fsync, specs: make(map[string]*sessionSpec)}
	restoredAt := time.Now().UTC()
	log, replay, err := wal.OpenLog(path, "journal", hooks, logf, func(payload []byte, _ time.Time) error {
		return st.apply(payload, restoredAt)
	})
	if err != nil {
		return nil, nil, fmt.Errorf("store: %w", err)
	}
	st.log = log
	compacted := st.compactLocked(false)
	return st, &report.RecoveryJSON{
		DataDir:     dir,
		RecoveredAt: restoredAt.Format(time.RFC3339Nano),
		Records:     replay.Records,
		TornTail:    replay.TornTail,
		Quarantined: replay.Quarantined,
		Compacted:   compacted,
		Restored:    st.Names(),
	}, nil
}

// apply folds one replayed record into the spec index; an error
// quarantines the record.
func (st *Store) apply(payload []byte, restoredAt time.Time) error {
	var rec record
	if err := json.Unmarshal(payload, &rec); err != nil {
		return fmt.Errorf("undecodable record: %v", err)
	}
	switch rec.Type {
	case "create":
		if rec.Create == nil || rec.Create.Name == "" {
			return errors.New("create record without a request payload")
		}
		st.specs[rec.Create.Name] = &sessionSpec{Create: rec.Create, Padding: rec.Padding, keys: keysOf(rec.Create.design()), restoredAt: restoredAt}
	case "padding":
		sp := st.specs[rec.Name]
		if sp == nil {
			return fmt.Errorf("padding for unknown session %q", rec.Name)
		}
		if sp.Padding == nil {
			sp.Padding = make(map[string]float64, len(rec.Padding))
		}
		for net, pad := range rec.Padding {
			if pad > sp.Padding[net] {
				sp.Padding[net] = pad
			}
		}
	case "round":
		// An interactive iterate's round state, which older builds wrote:
		// iterate runs only as a job now, whose progress carries its own.
	case "delete":
		if rec.Name == "" {
			return errors.New("delete record without a session name")
		}
		delete(st.specs, rec.Name)
	default:
		return fmt.Errorf("unknown record type %q", rec.Type)
	}
	return nil
}

// appendLocked journals one record; callers hold st.mu. On success the
// in-memory effects have NOT been applied — callers apply them after, so
// a journaling failure leaves the index matching the durable state.
func (st *Store) appendLocked(rec *record) error {
	start := time.Now()
	if st.fsync != nil {
		defer func() { st.fsync.Observe(time.Since(start).Seconds()) }()
	}
	payload, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("encoding journal record: %w", err)
	}
	return st.log.Append(payload)
}

// Create durably records a session creation, whose keys the create
// computed. It must succeed before the server acknowledges the create: an
// acknowledged session survives a crash.
func (st *Store) Create(req *CreateSessionRequest, keys specKeys) error {
	st.mu.Lock()
	defer st.mu.Unlock()
	if err := st.appendLocked(&record{Type: "create", Name: req.Name, Create: req}); err != nil {
		return err
	}
	st.specs[req.Name] = &sessionSpec{Create: req, keys: keys}
	st.compactLocked(false)
	return nil
}

// Delete durably records a session tombstone. It must succeed before the
// server acknowledges the delete: a crash right after the 200 must not
// resurrect the session on replay.
func (st *Store) Delete(name string) error {
	st.mu.Lock()
	defer st.mu.Unlock()
	if err := st.appendLocked(&record{Type: "delete", Name: name}); err != nil {
		return err
	}
	delete(st.specs, name)
	st.compactLocked(false)
	return nil
}

// Padding durably records the session's cumulative window padding.
// Padding is max-monotonic, so the journal carries the full cumulative
// map — replaying any prefix of padding records yields a state the next
// record absorbs.
func (st *Store) Padding(name string, padding map[string]float64) error {
	st.mu.Lock()
	defer st.mu.Unlock()
	sp := st.specs[name]
	if sp == nil {
		return fmt.Errorf("store: padding for unknown session %q", name)
	}
	cp := maps.Clone(padding)
	if err := st.appendLocked(&record{Type: "padding", Name: name, Padding: cp}); err != nil {
		return err
	}
	sp.Padding = cp
	st.compactLocked(false)
	return nil
}

// Spec returns a copy of the persisted spec for name, or nil. The server
// uses it to lazily re-materialize sessions that were LRU-evicted from
// memory (or never loaded after a restart).
func (st *Store) Spec(name string) *sessionSpec {
	st.mu.Lock()
	defer st.mu.Unlock()
	sp := st.specs[name]
	if sp == nil {
		return nil
	}
	return sp.clone()
}

// Names returns the sorted names of every persisted session.
func (st *Store) Names() []string {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.namesLocked()
}

func (st *Store) namesLocked() []string {
	out := make([]string, 0, len(st.specs))
	for name := range st.specs {
		out = append(out, name)
	}
	slices.Sort(out)
	return out
}

// QuarantineSpec removes a persisted session whose spec cannot be
// re-materialized (sources no longer build — disk rot inside a CRC-valid
// record, or format skew): the spec bytes move to quarantine/ with a
// reason sidecar and a tombstone is journaled so it never resurfaces.
// It returns the report entry, or nil when the name is unknown.
func (st *Store) QuarantineSpec(name, reason string) *report.QuarantineJSON {
	st.mu.Lock()
	defer st.mu.Unlock()
	sp := st.specs[name]
	if sp == nil {
		return nil
	}
	payload, err := json.Marshal(sp)
	if err != nil {
		st.logf("store: encoding quarantined spec of %q: %v", name, err)
	}
	entry := st.log.Quarantine(".spec", bytes.NewReader(payload), report.QuarantineJSON{Session: name, Reason: reason})
	if err := st.appendLocked(&record{Type: "delete", Name: name}); err != nil {
		st.logf("store: journaling quarantine tombstone for %q: %v", name, err)
	}
	delete(st.specs, name)
	return &entry
}

// Degraded reports whether a journal append or compaction has failed
// since boot.
func (st *Store) Degraded() bool { return st.log.Degraded() }

// Close releases the journal file (appends are already fsynced).
func (st *Store) Close() error {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.log.Close()
}

// compactLocked rewrites the journal as one create record per live
// session (request and cumulative padding) when the log says
// a rewrite is due, or when force is set; it reports whether the journal
// was rewritten. A failure is logged and retried after the next append:
// compaction bounds replay time, it is not a durability requirement, and
// a failed rewrite leaves the journal whole.
func (st *Store) compactLocked(force bool) bool {
	if !force && !st.log.Due() {
		return false
	}
	err := st.log.Rewrite(func(emit func([]byte) error) error {
		for _, name := range st.namesLocked() {
			sp := st.specs[name]
			payload, err := json.Marshal(&record{Type: "create", Name: name, Create: sp.Create, Padding: sp.Padding})
			if err != nil {
				return fmt.Errorf("encoding %q: %w", name, err)
			}
			if err := emit(payload); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		st.logf("store: compaction failed (will retry): %v", err)
	}
	return err == nil
}
