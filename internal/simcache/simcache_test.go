package simcache

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
)

func testResult() Result {
	return Result{
		Cycles:        23511,
		Instructions:  96000,
		L2Misses:      7927,
		L2Accesses:    19046,
		MemAccesses:   7927,
		DisabledLines: 2,
	}
}

func TestPutGetRoundTrip(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := Key("gpu=... scheme=killi-1:64 workload=xsbench seed=1")
	if _, ok := s.Get(key); ok {
		t.Fatal("Get on empty store reported a hit")
	}
	want := testResult()
	if err := s.Put(key, want); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Get(key)
	if !ok {
		t.Fatal("Get missed a stored entry")
	}
	if got != want {
		t.Fatalf("round trip changed the result: got %+v, want %+v", got, want)
	}
	if s.Hits() != 1 || s.Misses() != 1 {
		t.Fatalf("hits=%d misses=%d, want 1/1", s.Hits(), s.Misses())
	}
}

func TestDistinctDescriptionsDistinctKeys(t *testing.T) {
	a := Key("scheme=killi-1:64 seed=1")
	b := Key("scheme=killi-1:64 seed=2")
	if a == b {
		t.Fatal("different descriptions produced the same key")
	}
	if a != Key("scheme=killi-1:64 seed=1") {
		t.Fatal("key derivation is not deterministic")
	}
}

// entryFile locates the single cache entry file in the store directory.
func entryFile(t *testing.T, dir string) string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil || len(files) != 1 {
		t.Fatalf("want exactly one entry file, got %v (err %v)", files, err)
	}
	return files[0]
}

func TestCorruptedEntryIsAMiss(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	key := Key("desc")
	if err := s.Put(key, testResult()); err != nil {
		t.Fatal(err)
	}

	path := entryFile(t, dir)
	orig, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	for name, corrupt := range map[string]string{
		"flipped payload": strings.Replace(string(orig), `"cycles": 23511`, `"cycles": 23512`, 1),
		"truncated":       string(orig[:len(orig)/2]),
		"not json":        "hello\n",
		"empty":           "",
	} {
		if corrupt == string(orig) {
			t.Fatalf("%s: corruption did not change the file", name)
		}
		if err := os.WriteFile(path, []byte(corrupt), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, ok := s.Get(key); ok {
			t.Errorf("%s: corrupted entry served as a hit", name)
		}
	}

	// Recomputing (a fresh Put) must repair the entry in place.
	if err := s.Put(key, testResult()); err != nil {
		t.Fatal(err)
	}
	if got, ok := s.Get(key); !ok || got != testResult() {
		t.Fatalf("repaired entry not served: ok=%v got=%+v", ok, got)
	}
}

// bumpField changes v, a numeric field or the first element of a numeric
// slice, by one.
func bumpField(t *testing.T, name string, v reflect.Value) {
	t.Helper()
	switch v.Kind() {
	case reflect.Int, reflect.Int32, reflect.Int64:
		v.SetInt(v.Int() + 1)
	case reflect.Uint, reflect.Uint32, reflect.Uint64:
		v.SetUint(v.Uint() + 1)
	case reflect.Float64:
		v.SetFloat(v.Float() + 1)
	case reflect.Slice:
		if v.Len() == 0 {
			t.Fatalf("%s: empty slice, nothing to change", name)
		}
		bumpField(t, name, v.Index(0))
	default:
		t.Fatalf("%s: no way to change a %s field; extend bumpField", name, v.Kind())
	}
}

// TestEveryFieldIsChecksummed rewrites a stored entry on disk with one
// payload field changed and its old checksum kept — every field of a plain
// Result in turn, then every field of a DieRecord (each per-cell slice
// included) — and requires the read to miss. It enumerates the fields by
// reflection, so a field added later is covered the day it lands.
func TestEveryFieldIsChecksummed(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	rewrite := func(v any) {
		buf, err := json.MarshalIndent(v, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(entryFile(t, dir), buf, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	key := Key("every plain field")
	if err := s.Put(key, testResult()); err != nil {
		t.Fatal(err)
	}
	var e entry
	buf, err := os.ReadFile(entryFile(t, dir))
	if err != nil || json.Unmarshal(buf, &e) != nil {
		t.Fatalf("reading the stored entry: %v", err)
	}
	rewrite(e)
	if _, ok := s.Get(key); !ok {
		t.Fatal("control: the re-encoded, unchanged entry misses")
	}
	rt := reflect.TypeOf(e.Result)
	for i := 0; i < rt.NumField(); i++ {
		changed := e
		bumpField(t, rt.Field(i).Name, reflect.ValueOf(&changed.Result).Elem().Field(i))
		rewrite(changed)
		if _, ok := s.Get(key); ok {
			t.Errorf("Result.%s changed on disk, yet Get hit: the checksum does not cover it", rt.Field(i).Name)
		}
	}

	if err := os.Remove(entryFile(t, dir)); err != nil {
		t.Fatal(err)
	}
	dieKey := Key("every die field")
	if err := s.PutDie(dieKey, testDieRecord()); err != nil {
		t.Fatal(err)
	}
	var d dieEntry
	buf, err = os.ReadFile(entryFile(t, dir))
	if err != nil || json.Unmarshal(buf, &d) != nil {
		t.Fatalf("reading the stored die entry: %v", err)
	}
	rewrite(d)
	if _, ok := s.GetDie(dieKey); !ok {
		t.Fatal("control: the re-encoded, unchanged die entry misses")
	}
	rt = reflect.TypeOf(d.Record)
	for i := 0; i < rt.NumField(); i++ {
		var changed dieEntry // a deep copy: the slices are the file's own
		if err := json.Unmarshal(buf, &changed); err != nil {
			t.Fatal(err)
		}
		bumpField(t, rt.Field(i).Name, reflect.ValueOf(&changed.Record).Elem().Field(i))
		rewrite(changed)
		if _, ok := s.GetDie(dieKey); ok {
			t.Errorf("DieRecord.%s changed on disk, yet GetDie hit: the checksum does not cover it", rt.Field(i).Name)
		}
	}
}

func TestSchemaMismatchIsAMiss(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	key := Key("desc")
	if err := s.Put(key, testResult()); err != nil {
		t.Fatal(err)
	}

	// Rewrite the entry as a future schema version with a self-consistent
	// checksum: the in-file schema check alone must reject it.
	e := entry{Schema: SchemaVersion + 1, Kind: "result", Key: key, Result: testResult()}
	e.Checksum = e.checksum()
	buf, err := json.Marshal(e)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(entryFile(t, dir), buf, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(key); ok {
		t.Fatal("schema-mismatched entry served as a hit")
	}
}

func TestWrongKeyInFileIsAMiss(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	keyA, keyB := Key("a"), Key("b")
	if err := s.Put(keyA, testResult()); err != nil {
		t.Fatal(err)
	}
	// A file renamed onto another key's path (e.g. a botched manual copy)
	// self-identifies through its embedded key and is rejected.
	if err := os.Rename(filepath.Join(dir, keyA+".json"), filepath.Join(dir, keyB+".json")); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(keyB); ok {
		t.Fatal("entry with mismatched embedded key served as a hit")
	}
}

func TestPutLeavesNoTempFiles(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := s.Put(Key(string(rune('a'+i))), testResult()); err != nil {
			t.Fatal(err)
		}
	}
	leftovers, err := filepath.Glob(filepath.Join(dir, "put-*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(leftovers) != 0 {
		t.Fatalf("temp files left behind: %v", leftovers)
	}
}

func TestRemoveTempsSweepsOnlyTempFiles(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	key := Key("kept")
	if err := s.Put(key, testResult()); err != nil {
		t.Fatal(err)
	}
	// Simulate two interrupted writers stranding temps mid-Put.
	for _, name := range []string{"put-1234", "put-deadbeef"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("partial"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	n, err := s.RemoveTemps()
	if err != nil {
		t.Fatalf("RemoveTemps: %v", err)
	}
	if n != 2 {
		t.Fatalf("RemoveTemps removed %d files, want 2", n)
	}
	leftovers, err := filepath.Glob(filepath.Join(dir, "put-*"))
	if err != nil || len(leftovers) != 0 {
		t.Fatalf("temp files survived the sweep: %v (err %v)", leftovers, err)
	}
	if got, ok := s.Get(key); !ok || got != testResult() {
		t.Fatalf("completed entry damaged by RemoveTemps: ok=%v got=%+v", ok, got)
	}
	// Idempotent on an already-clean directory.
	if n, err := s.RemoveTemps(); err != nil || n != 0 {
		t.Fatalf("second RemoveTemps = (%d, %v), want (0, nil)", n, err)
	}
}

func testDieRecord() DieRecord {
	return DieRecord{
		Die:          7,
		Base:         []uint64{23511, 40100},
		Cycles:       []uint64{23511, 23900, 40100, 40250},
		MPKI:         []float64{82.573, 83.001, 12.5, 12.625},
		Disabled:     []int32{0, 3, 0, 5},
		SDC:          []uint64{0, 1, 0, 0},
		FalseDisable: []int32{0, 0, 0, 2},
		FalseTrust:   []int32{0, 1, 0, 0},
	}
}

func TestDieRecordRoundTrip(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := Key("campaign axes\ndie=7")
	if _, ok := s.GetDie(key); ok {
		t.Fatal("GetDie on empty store reported a hit")
	}
	want := testDieRecord()
	if err := s.PutDie(key, want); err != nil {
		t.Fatal(err)
	}
	got, ok := s.GetDie(key)
	if !ok {
		t.Fatal("GetDie missed a stored die record")
	}
	if got.Canonical() != want.Canonical() {
		t.Fatalf("round trip changed the record:\ngot  %s\nwant %s", got.Canonical(), want.Canonical())
	}
	if !got.Shaped(2, 4) {
		t.Fatal("round-tripped record lost its shape")
	}
	if got.Shaped(2, 5) || got.Shaped(1, 4) {
		t.Fatal("Shaped accepted wrong dimensions")
	}
}

// A die key must never deserialize as a plain result, nor a result key as a
// die record: the kind participates in the checksum, so cross-kind reads are
// misses even when the file parses.
func TestKindConfusionIsAMiss(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	dieKey, resKey := Key("die entry"), Key("result entry")
	if err := s.PutDie(dieKey, testDieRecord()); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(resKey, testResult()); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(dieKey); ok {
		t.Fatal("Get served a die-record entry as a plain result")
	}
	if _, ok := s.GetDie(resKey); ok {
		t.Fatal("GetDie served a plain result entry as a die record")
	}
	// The right-kind reads still work after the wrong-kind probes.
	if _, ok := s.GetDie(dieKey); !ok {
		t.Fatal("GetDie missed its own entry")
	}
	if _, ok := s.Get(resKey); !ok {
		t.Fatal("Get missed its own entry")
	}
}

func TestCorruptedDieEntryIsAMiss(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	key := Key("die desc")
	if err := s.PutDie(key, testDieRecord()); err != nil {
		t.Fatal(err)
	}
	path := entryFile(t, dir)
	orig, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for name, corrupt := range map[string]string{
		"flipped payload": strings.Replace(string(orig), `"die": 7`, `"die": 8`, 1),
		"truncated":       string(orig[:len(orig)/2]),
		"not json":        "hello\n",
	} {
		if corrupt == string(orig) {
			t.Fatalf("%s: corruption did not change the file", name)
		}
		if err := os.WriteFile(path, []byte(corrupt), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, ok := s.GetDie(key); ok {
			t.Errorf("%s: corrupted die entry served as a hit", name)
		}
	}
	// Recomputing repairs in place.
	if err := s.PutDie(key, testDieRecord()); err != nil {
		t.Fatal(err)
	}
	if got, ok := s.GetDie(key); !ok || got.Canonical() != testDieRecord().Canonical() {
		t.Fatalf("repaired die entry not served: ok=%v", ok)
	}
}

// TestMalformedDieRecordIsAMiss writes die entries whose per-cell slices
// differ in length from Cycles under a die key: each must be a miss, never
// a panic in the checksum (which indexes every per-cell slice by cell) and
// never a hit on a record the campaign cannot aggregate — even when the
// entry's checksum is valid.
func TestMalformedDieRecordIsAMiss(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := Key("die desc")
	for _, tc := range []struct {
		name   string
		mangle func(r *DieRecord)
		long   bool // every slice at least as long as Cycles, so the checksum is computable
	}{
		{"short mpki", func(r *DieRecord) { r.MPKI = r.MPKI[:0] }, false},
		{"short disabled", func(r *DieRecord) { r.Disabled = r.Disabled[:3] }, false},
		{"short sdc", func(r *DieRecord) { r.SDC = nil }, false},
		{"short false_disable", func(r *DieRecord) { r.FalseDisable = r.FalseDisable[:1] }, false},
		{"short false_trust", func(r *DieRecord) { r.FalseTrust = r.FalseTrust[:2] }, false},
		{"long mpki", func(r *DieRecord) { r.MPKI = append(r.MPKI, 1) }, true},
		{"long false_trust", func(r *DieRecord) { r.FalseTrust = append(r.FalseTrust, 1) }, true},
	} {
		e := dieEntry{Schema: SchemaVersion, Kind: kindDie, Key: key, Record: testDieRecord()}
		tc.mangle(&e.Record)
		if tc.long {
			e.Checksum = e.checksum()
		}
		buf, err := json.Marshal(e)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(s.path(key), buf, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, ok := s.GetDie(key); ok {
			t.Errorf("%s: malformed die record served as a hit", tc.name)
		}
	}
	// A minimal malformed record: two cells, no MPKI, nothing else.
	if err := os.WriteFile(s.path(key), []byte(`{"schema":`+strconv.Itoa(SchemaVersion)+
		`,"kind":"die","key":"`+key+`","record":{"cycles":[1,2],"mpki":[]}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.GetDie(key); ok {
		t.Error("two-cell record without MPKI served as a hit")
	}
}

// FuzzGetDie writes arbitrary bytes as the entry file of one key: neither
// Get nor GetDie may panic on them, and a GetDie hit is always a record
// whose per-cell slices all have Cycles' length.
func FuzzGetDie(f *testing.F) {
	dir := f.TempDir()
	s, err := Open(dir)
	if err != nil {
		f.Fatal(err)
	}
	key := Key("die desc")
	if err := s.PutDie(key, testDieRecord()); err != nil {
		f.Fatal(err)
	}
	die, err := os.ReadFile(s.path(key))
	if err != nil {
		f.Fatal(err)
	}
	if err := s.Put(key, testResult()); err != nil {
		f.Fatal(err)
	}
	result, err := os.ReadFile(s.path(key))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(die)
	f.Add(result)
	f.Add([]byte(`{"schema":` + strconv.Itoa(SchemaVersion) + `,"kind":"die","key":"` + key + `","record":{"cycles":[1,2],"mpki":[]}}`))
	f.Add([]byte("not json"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, buf []byte) {
		if err := os.WriteFile(s.path(key), buf, 0o644); err != nil {
			t.Fatal(err)
		}
		s.Get(key)
		if r, ok := s.GetDie(key); ok && !r.Shaped(len(r.Base), len(r.Cycles)) {
			t.Fatalf("GetDie served a mis-shaped record: %s", buf)
		}
	})
}

// Parallel die workers can Put the same key concurrently (two campaigns
// racing, or a worker repairing a corrupt entry while another recomputes
// it). Whatever write wins the final rename, the entry must be whole: a
// valid checksum over one writer's complete payload, never a torn mix.
func TestConcurrentPutSameKey(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	key := Key("contended")
	const writers = 16
	var wg sync.WaitGroup
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r := testResult()
			r.Cycles += uint64(i) // distinct payloads make tearing detectable
			for j := 0; j < 8; j++ {
				if err := s.Put(key, r); err != nil {
					t.Errorf("writer %d: %v", i, err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	got, ok := s.Get(key)
	if !ok {
		t.Fatal("no valid entry after concurrent writers finished")
	}
	if d := got.Cycles - testResult().Cycles; d >= writers {
		t.Fatalf("winning entry is no single writer's payload: cycles=%d", got.Cycles)
	}
	if leftovers, _ := filepath.Glob(filepath.Join(dir, "put-*")); len(leftovers) != 0 {
		t.Fatalf("temp files left behind: %v", leftovers)
	}
}

// Same contention through the die-record path.
func TestConcurrentPutDieSameKey(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := Key("contended die")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r := testDieRecord()
			r.Cycles = append([]uint64(nil), r.Cycles...)
			r.Cycles[0] += uint64(i)
			if err := s.PutDie(key, r); err != nil {
				t.Errorf("writer %d: %v", i, err)
			}
		}(i)
	}
	wg.Wait()
	got, ok := s.GetDie(key)
	if !ok {
		t.Fatal("no valid die entry after concurrent writers finished")
	}
	if d := got.Cycles[0] - testDieRecord().Cycles[0]; d >= 8 {
		t.Fatalf("winning die entry is no single writer's payload: cycles[0]=%d", got.Cycles[0])
	}
}

func TestOpenCreatesDirectory(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "nested", "cache")
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put(Key("x"), testResult()); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(Key("x")); !ok {
		t.Fatal("store under created directory not usable")
	}
}
