// Package simcache is a content-addressed, on-disk cache of simulation
// results.
//
// A sweep task is fully determined by its inputs: the GPU configuration
// (fault seed, voltage, geometry, latencies), the protection scheme, the
// workload name, the trace seed and length, and the warmup kernel count.
// The cache keys each task result by a SHA-256 digest of a canonical
// description of those inputs plus a schema version, so re-running a figure
// whose inputs are unchanged is a disk read instead of a simulation.
//
// Robustness properties:
//
//   - entries carry a checksum of their own payload, so a corrupted or
//     truncated file is detected and reported as a miss (the caller
//     recomputes and overwrites it), never served;
//   - entries record the schema version; bump SchemaVersion whenever the
//     simulator's observable behavior changes so stale results from older
//     binaries are never served;
//   - writes go through a temp file that is fsynced before an atomic
//     rename (and the directory entry is fsynced after it), so concurrent
//     writers (the sweep worker pool) and crashes — including power loss
//     straddling the rename — leave either the old entry, the new entry,
//     or nothing: never a torn file;
//   - an interrupted writer can strand "put-*" temp files; RemoveTemps
//     sweeps them, and experiments.Run calls it when a sweep is cancelled.
//
// The cache holds only the scalar result of a task (cycles, instruction and
// miss counts, disabled lines) — everything the sweep merge consumes. Debug
// counters are not cached; runs that need them bypass the cache.
//
// Two record kinds share one directory: plain Result entries (one simulation
// each, the sweep/single-run unit) and DieRecord entries (one campaign die's
// complete evaluation — its fault-free baselines plus every per-cell scalar —
// the unit internal/campaign streams on a warm re-run). Kinds are disjoint
// by construction: the kind participates in both the content address and the
// entry checksum, so a die key can never deserialize as a plain result or
// vice versa.
package simcache

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
)

// SchemaVersion invalidates every existing cache entry when bumped. It must
// change whenever a code change alters simulation results (a golden-digest
// change is the tell) or the Result layout. v3: fault-class results (SDC,
// transient strikes, misclassification scalars) joined the payload. v4: the
// campaign die-record kind joined the store.
const SchemaVersion = 4

// Result is the cacheable scalar slice of a simulation result. The
// misclassification fields are zero for runs whose scheme exposes no DFH
// codes (MisclassLines == 0 marks them absent).
type Result struct {
	Cycles           uint64 `json:"cycles"`
	Instructions     uint64 `json:"instructions"`
	L2Misses         uint64 `json:"l2_misses"`
	L2Accesses       uint64 `json:"l2_accesses"`
	MemAccesses      uint64 `json:"mem_accesses"`
	DisabledLines    int    `json:"disabled_lines"`
	SDC              uint64 `json:"sdc,omitempty"`
	TransientStrikes uint64 `json:"transient_strikes,omitempty"`
	MisclassLines    int    `json:"misclass_lines,omitempty"`
	TrueFaulty       int    `json:"true_faulty,omitempty"`
	MisclassDisabled int    `json:"misclass_disabled,omitempty"`
	MisclassInitial  int    `json:"misclass_initial,omitempty"`
	FalseDisable     int    `json:"false_disable,omitempty"`
	FalseTrust       int    `json:"false_trust,omitempty"`
}

// Entry kinds stored in the cache directory. The kind is part of both the
// content address and the checksum, so the kinds can never alias.
const (
	kindResult = "result"
	kindDie    = "die"
)

// DieRecord is one campaign die's complete evaluation: the fault-free
// nominal-voltage baseline per workload plus the scalar outcome of every
// (workload, scheme, class, voltage) cell, cell-index-major with voltage
// fastest — exactly the record internal/campaign aggregates, so a warm
// campaign re-run is one Get per die. The campaign checkpoint journals each
// record as the same checksummed entry, one per line (EncodeDie).
type DieRecord struct {
	Die          int       `json:"die"`
	Base         []uint64  `json:"base"`
	Cycles       []uint64  `json:"cycles"`
	MPKI         []float64 `json:"mpki"`
	Disabled     []int32   `json:"disabled"`
	SDC          []uint64  `json:"sdc"`
	FalseDisable []int32   `json:"false_disable"`
	FalseTrust   []int32   `json:"false_trust"`
}

// Canonical renders the record as a stable string: every float at %.17g (the
// round-trip-exact format), every slice length explicit. It feeds the
// checksum of every die entry, in the cache and in the campaign checkpoint
// journal alike.
func (r DieRecord) Canonical() string {
	var b strings.Builder
	fmt.Fprintf(&b, "die=%d base=%d cells=%d|", r.Die, len(r.Base), len(r.Cycles))
	for _, v := range r.Base {
		fmt.Fprintf(&b, "%d ", v)
	}
	b.WriteByte('|')
	for i := range r.Cycles {
		fmt.Fprintf(&b, "%d %.17g %d %d %d %d;", r.Cycles[i], r.MPKI[i], r.Disabled[i], r.SDC[i], r.FalseDisable[i], r.FalseTrust[i])
	}
	return b.String()
}

// Shaped reports whether the record has the slice lengths a campaign with
// the given workload and cell counts expects — the structural validation a
// replayed checkpoint record and a cached die record both pass before being
// aggregated.
func (r DieRecord) Shaped(workloads, cells int) bool {
	return len(r.Base) == workloads &&
		len(r.Cycles) == cells && len(r.MPKI) == cells && len(r.Disabled) == cells &&
		len(r.SDC) == cells && len(r.FalseDisable) == cells && len(r.FalseTrust) == cells
}

// entry is the on-disk representation of one cached result.
type entry struct {
	Schema   int    `json:"schema"`
	Kind     string `json:"kind"`
	Key      string `json:"key"`
	Result   Result `json:"result"`
	Checksum string `json:"checksum"`
}

// checksum digests the fields the entry protects: the schema, the kind, the
// key, and the whole result rendered with %#v — every field by name, so a
// field added to Result is covered without touching this function.
func (e entry) checksum() string {
	sum := sha256.Sum256([]byte(fmt.Sprintf("%d|%s|%s|%#v", e.Schema, e.Kind, e.Key, e.Result)))
	return hex.EncodeToString(sum[:])
}

// dieEntry is the on-disk representation of one cached die record.
type dieEntry struct {
	Schema   int       `json:"schema"`
	Kind     string    `json:"kind"`
	Key      string    `json:"key"`
	Record   DieRecord `json:"record"`
	Checksum string    `json:"checksum"`
}

func (e dieEntry) checksum() string {
	sum := sha256.Sum256([]byte(fmt.Sprintf("%d|%s|%s|%s", e.Schema, e.Kind, e.Key, e.Record.Canonical())))
	return hex.EncodeToString(sum[:])
}

func newDieEntry(key string, r DieRecord) dieEntry {
	e := dieEntry{Schema: SchemaVersion, Kind: kindDie, Key: key, Record: r}
	e.Checksum = e.checksum()
	return e
}

// EncodeDie renders r as the checksummed entry PutDie stores under key, on
// one line with no trailing newline: the campaign checkpoint's journal line.
func EncodeDie(key string, r DieRecord) ([]byte, error) {
	return json.Marshal(newDieEntry(key, r))
}

// DecodeDie parses a die entry — a cache file or a journal line — and
// validates it for key: the schema, the kind (a plain result under a
// confused key fails), the key, the record's shape and the checksum. The
// shape check — every per-cell slice as long as Cycles — comes before the
// checksum, which indexes them by cell. ok is false on any failure.
func DecodeDie(buf []byte, key string) (r DieRecord, ok bool) {
	var e dieEntry
	if json.Unmarshal(buf, &e) != nil ||
		e.Schema != SchemaVersion ||
		e.Kind != kindDie ||
		e.Key != key ||
		!e.Record.Shaped(len(e.Record.Base), len(e.Record.Cycles)) ||
		e.Checksum != e.checksum() {
		return DieRecord{}, false
	}
	return e.Record, true
}

// Key returns the content address for a canonical task description. The
// schema version participates in the digest, so entries written by an
// incompatible simulator are unreachable even before the in-file schema
// check.
func Key(desc string) string {
	sum := sha256.Sum256([]byte(fmt.Sprintf("simcache/v%d\n%s", SchemaVersion, desc)))
	return hex.EncodeToString(sum[:])
}

// Store is a cache directory. Methods are safe for concurrent use by the
// sweep worker pool.
type Store struct {
	dir           string
	hits, misses  atomic.Int64
	writeFailures atomic.Int64
}

// Open returns a store over dir, creating the directory if needed.
func Open(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("simcache: %w", err)
	}
	return &Store{dir: dir}, nil
}

// Dir returns the store's directory.
func (s *Store) Dir() string { return s.dir }

// Hits and Misses report how many Get calls were served and not served
// since Open. A corrupted or schema-mismatched entry counts as a miss.
func (s *Store) Hits() int64   { return s.hits.Load() }
func (s *Store) Misses() int64 { return s.misses.Load() }

// WriteFailures reports how many Put calls failed. Puts are best-effort
// from the caller's perspective (a full disk must not fail a sweep), but
// the count keeps failures observable.
func (s *Store) WriteFailures() int64 { return s.writeFailures.Load() }

func (s *Store) path(key string) string { return filepath.Join(s.dir, key+".json") }

// Get returns the cached result for key. ok is false on a missing entry and
// on any entry that fails validation — wrong schema, wrong key, or a
// checksum mismatch from corruption — so the caller silently recomputes.
func (s *Store) Get(key string) (Result, bool) {
	buf, err := os.ReadFile(s.path(key))
	if err != nil {
		s.misses.Add(1)
		return Result{}, false
	}
	var e entry
	if json.Unmarshal(buf, &e) != nil ||
		e.Schema != SchemaVersion ||
		e.Kind != kindResult ||
		e.Key != key ||
		e.Checksum != e.checksum() {
		s.misses.Add(1)
		return Result{}, false
	}
	s.hits.Add(1)
	return e.Result, true
}

// GetDie returns the cached die record for key. A missing file, or an
// entry DecodeDie rejects, is a miss and the caller recomputes the die.
func (s *Store) GetDie(key string) (DieRecord, bool) {
	buf, err := os.ReadFile(s.path(key))
	if err == nil {
		if r, ok := DecodeDie(buf, key); ok {
			s.hits.Add(1)
			return r, true
		}
	}
	s.misses.Add(1)
	return DieRecord{}, false
}

// Put stores a result under key, atomically replacing any existing entry.
func (s *Store) Put(key string, r Result) error {
	e := entry{Schema: SchemaVersion, Kind: kindResult, Key: key, Result: r}
	e.Checksum = e.checksum()
	return s.write(key, e)
}

// PutDie stores a die record under key, atomically replacing any existing
// entry. Like Put it is best-effort from the campaign's perspective: a full
// disk must not fail a run.
func (s *Store) PutDie(key string, r DieRecord) error {
	return s.write(key, newDieEntry(key, r))
}

// write marshals an entry of either kind and lands it atomically: temp file,
// write, fsync, rename, directory fsync.
func (s *Store) write(key string, e any) error {
	buf, err := json.MarshalIndent(e, "", "  ")
	if err != nil {
		s.writeFailures.Add(1)
		return fmt.Errorf("simcache: %w", err)
	}
	buf = append(buf, '\n')
	tmp, err := os.CreateTemp(s.dir, "put-*")
	if err != nil {
		s.writeFailures.Add(1)
		return fmt.Errorf("simcache: %w", err)
	}
	_, werr := tmp.Write(buf)
	// Sync before the rename: without it a crash shortly after Put can
	// persist the rename but not the data, leaving a torn entry that every
	// later Get would have to detect and recompute.
	serr := tmp.Sync()
	cerr := tmp.Close()
	if werr != nil || serr != nil || cerr != nil {
		os.Remove(tmp.Name())
		s.writeFailures.Add(1)
		return fmt.Errorf("simcache: writing %s: write=%v sync=%v close=%v", key, werr, serr, cerr)
	}
	if err := os.Rename(tmp.Name(), s.path(key)); err != nil {
		os.Remove(tmp.Name())
		s.writeFailures.Add(1)
		return fmt.Errorf("simcache: %w", err)
	}
	if err := s.syncDir(); err != nil {
		// The entry itself is durable and well-formed; only the rename's
		// directory update may still be unflushed. Count it, don't fail.
		s.writeFailures.Add(1)
		return fmt.Errorf("simcache: syncing %s: %w", s.dir, err)
	}
	return nil
}

// syncDir fsyncs the cache directory so a completed rename survives a
// crash. Filesystems that cannot fsync a directory report the error to the
// caller via Put.
func (s *Store) syncDir() error {
	d, err := os.Open(s.dir)
	if err != nil {
		return err
	}
	serr := d.Sync()
	if cerr := d.Close(); serr == nil {
		serr = cerr
	}
	return serr
}

// RemoveTemps deletes stranded "put-*" temp files from the cache directory
// and reports how many it removed. Completed entries are untouched. Call it
// only when no writer is mid-Put on this directory — e.g. after a cancelled
// sweep's workers have drained — since it would yank a live writer's temp
// file out from under it (that Put would then fail, which Put callers
// already treat as best-effort).
func (s *Store) RemoveTemps() (int, error) {
	matches, err := filepath.Glob(filepath.Join(s.dir, "put-*"))
	if err != nil {
		return 0, fmt.Errorf("simcache: %w", err)
	}
	removed := 0
	var firstErr error
	for _, m := range matches {
		switch err := os.Remove(m); {
		case err == nil:
			removed++
		case firstErr == nil && !os.IsNotExist(err):
			firstErr = fmt.Errorf("simcache: %w", err)
		}
	}
	return removed, firstErr
}
