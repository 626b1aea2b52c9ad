package engine

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/charz"
	"repro/internal/synth"
	"repro/internal/triad"
)

func cacheTestKey(label string) string {
	sum := sha256.Sum256([]byte(label))
	return hex.EncodeToString(sum[:])
}

// scriptedFaults is a deterministic CacheFaultInjector for tests: each
// queue pops one decision per call, empty means no fault.
type scriptedFaults struct {
	writes  []writeFault
	renames []bool
	reads   []bool
}

type writeFault struct {
	truncate int
	fail     bool
}

func (f *scriptedFaults) WriteFault(key string) (int, bool) {
	if len(f.writes) == 0 {
		return 0, false
	}
	w := f.writes[0]
	f.writes = f.writes[1:]
	return w.truncate, w.fail
}

func (f *scriptedFaults) RenameFault(key string) bool {
	if len(f.renames) == 0 {
		return false
	}
	r := f.renames[0]
	f.renames = f.renames[1:]
	return r
}

func (f *scriptedFaults) ReadFault(key string) bool {
	if len(f.reads) == 0 {
		return false
	}
	r := f.reads[0]
	f.reads = f.reads[1:]
	return r
}

// TestCacheWriteSurvivesRename: the normal Put path publishes a
// complete entry through the temp-fsync-rename protocol; a fresh cache
// over the same directory serves it.
func TestCacheWriteSurvivesRename(t *testing.T) {
	dir := t.TempDir()
	c, err := NewCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	key := cacheTestKey("durable")
	c.Put(key, []byte(`{"v":1}`))
	// No temp files may survive a successful publish.
	matches, _ := filepath.Glob(filepath.Join(dir, key[:2], "*.tmp*"))
	if len(matches) != 0 {
		t.Fatalf("temp files left behind: %v", matches)
	}
	c2, err := NewCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	if data, ok := c2.Get(t.Context(), key); !ok || string(data) != `{"v":1}` {
		t.Fatalf("fresh cache reads %q, %v", data, ok)
	}
}

// TestCacheInjectedShortWrite: a fault-injected torn write (published
// prefix) is caught by the corrupt-entry recovery on the next Get —
// deleted, counted, served as a miss.
func TestCacheInjectedShortWrite(t *testing.T) {
	dir := t.TempDir()
	c, err := NewCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	c.SetFaults(&scriptedFaults{writes: []writeFault{{truncate: 3}}})
	key := cacheTestKey("torn")
	c.Put(key, []byte(`{"value":123456}`))
	// The torn entry is on disk; evict the memory copy to force the
	// disk read (a fresh cache models the post-crash process).
	c2, err := NewCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c2.Get(t.Context(), key); ok {
		t.Fatal("torn entry served as a hit")
	}
	s := c2.Stats()
	if s.CorruptEntries != 1 {
		t.Fatalf("stats = %+v; want the torn entry counted corrupt", s)
	}
	if _, err := os.Stat(c2.path(key)); !os.IsNotExist(err) {
		t.Fatalf("torn entry not deleted (stat err = %v)", err)
	}
}

// TestCacheInjectedWriteAndRenameFaults: outright write failures and
// rename failures count as WriteErrors and leave no debris; the entry
// still lands in memory.
func TestCacheInjectedWriteAndRenameFaults(t *testing.T) {
	dir := t.TempDir()
	c, err := NewCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	c.SetFaults(&scriptedFaults{
		writes:  []writeFault{{fail: true}, {}},
		renames: []bool{true}, // second write reaches the rename and fails there
	})
	k1, k2 := cacheTestKey("wf"), cacheTestKey("rf")
	c.Put(k1, []byte(`{"v":1}`))
	c.Put(k2, []byte(`{"v":2}`))
	s := c.Stats()
	if s.WriteErrors != 2 {
		t.Fatalf("stats = %+v; want two write errors", s)
	}
	for _, k := range []string{k1, k2} {
		if data, ok := c.Get(t.Context(), k); !ok || len(data) == 0 {
			t.Fatalf("entry %s lost from the memory layer", k[:8])
		}
		if _, err := os.Stat(c.path(k)); !os.IsNotExist(err) {
			t.Fatalf("failed write for %s left a disk entry", k[:8])
		}
	}
	matches, _ := filepath.Glob(filepath.Join(dir, "*", "*.tmp*"))
	if len(matches) != 0 {
		t.Fatalf("temp files left behind: %v", matches)
	}
}

// TestCacheInjectedReadFault: a read fault is served as a plain miss
// without touching the on-disk entry.
func TestCacheInjectedReadFault(t *testing.T) {
	dir := t.TempDir()
	c, err := NewCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	key := cacheTestKey("readfault")
	c.Put(key, []byte(`{"v":1}`))
	c2, err := NewCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	c2.SetFaults(&scriptedFaults{reads: []bool{true}})
	if _, ok := c2.Get(t.Context(), key); ok {
		t.Fatal("read-faulted Get served a hit")
	}
	// The fault queue is drained: the next Get reads the intact entry.
	if data, ok := c2.Get(t.Context(), key); !ok || string(data) != `{"v":1}` {
		t.Fatalf("entry damaged by a read fault: %q, %v", data, ok)
	}
}

// TestCacheDegradedMode walks the full degradation lifecycle: repeated
// write failures flip the cache into read-only memory-backed mode
// (writes skip the disk, stats say so, existing disk entries still
// serve), and a successful re-probe restores it.
func TestCacheDegradedMode(t *testing.T) {
	dir := t.TempDir()
	c, err := NewCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	// A pre-degradation entry, present on disk.
	oldKey := cacheTestKey("old")
	c.Put(oldKey, []byte(`{"v":"old"}`))

	// Short re-probe interval so the recovery leg runs in test time.
	defer func(d time.Duration) { reprobeInterval = d }(reprobeInterval)
	reprobeInterval = 50 * time.Millisecond

	faults := &scriptedFaults{}
	for i := 0; i < degradeThreshold; i++ {
		faults.writes = append(faults.writes, writeFault{fail: true})
	}
	c.SetFaults(faults)
	for i := 0; i < degradeThreshold; i++ {
		c.Put(cacheTestKey(fmt.Sprintf("fail-%d", i)), []byte(`{"v":1}`))
	}
	s := c.Stats()
	if !s.DiskDegraded {
		t.Fatalf("stats = %+v; want DiskDegraded after %d consecutive failures", s, degradeThreshold)
	}

	// While degraded: writes land in memory only and are counted.
	degKey := cacheTestKey("while-degraded")
	c.Put(degKey, []byte(`{"v":"deg"}`))
	s = c.Stats()
	if s.DegradedWrites == 0 {
		t.Fatalf("stats = %+v; want degraded writes counted", s)
	}
	if _, err := os.Stat(c.path(degKey)); !os.IsNotExist(err) {
		t.Fatal("degraded write reached the disk")
	}
	if data, ok := c.Get(t.Context(), degKey); !ok || string(data) != `{"v":"deg"}` {
		t.Fatalf("degraded entry lost: %q, %v", data, ok)
	}
	// Existing disk entries still serve (read-only mode, not dead).
	c.mu.Lock()
	delete(c.mem, oldKey) // drop the memory copy to force the disk path
	c.mu.Unlock()
	if data, ok := c.Get(t.Context(), oldKey); !ok || string(data) != `{"v":"old"}` {
		t.Fatalf("disk entry unreadable while degraded: %q, %v", data, ok)
	}

	// Recovery: once the re-probe interval passes, the next Put probes
	// the (now fault-free) disk and un-degrades the cache.
	time.Sleep(60 * time.Millisecond)
	recKey := cacheTestKey("recovered")
	c.Put(recKey, []byte(`{"v":"rec"}`))
	s = c.Stats()
	if s.DiskDegraded {
		t.Fatalf("stats = %+v; want recovery after a successful probe", s)
	}
	if _, err := os.Stat(c.path(recKey)); err != nil {
		t.Fatalf("post-recovery write missing from disk: %v", err)
	}
}

// TestCacheDegradedSuspendsEviction: while degraded the memory layer
// must hold everything — an evicted entry would have no disk copy.
func TestCacheDegradedSuspendsEviction(t *testing.T) {
	dir := t.TempDir()
	c, err := NewCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer func(d time.Duration) { reprobeInterval = d }(reprobeInterval)
	reprobeInterval = time.Hour // no recovery during the test

	faults := &scriptedFaults{}
	for i := 0; i < degradeThreshold; i++ {
		faults.writes = append(faults.writes, writeFault{fail: true})
	}
	c.SetFaults(faults)
	for i := 0; i < degradeThreshold; i++ {
		c.Put(cacheTestKey(fmt.Sprintf("fail-%d", i)), []byte(`{"v":1}`))
	}
	if !c.Stats().DiskDegraded {
		t.Fatal("cache must be degraded")
	}
	for i := 0; i < maxMemEntries+64; i++ {
		c.Put(cacheTestKey(fmt.Sprintf("bulk-%d", i)), []byte(`{"v":1}`))
	}
	if n := c.Stats().MemEntries; n <= maxMemEntries {
		t.Fatalf("MemEntries = %d; eviction ran while degraded", n)
	}
}

// TestCacheBackendContext: the ctx-aware Get contract — the in-process
// cache ignores the context (even canceled) and still serves.
func TestCacheBackendContext(t *testing.T) {
	c, err := NewCache("")
	if err != nil {
		t.Fatal(err)
	}
	key := cacheTestKey("ctx")
	c.Put(key, []byte(`{"v":1}`))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, ok := c.Get(ctx, key); !ok {
		t.Fatal("in-process cache must serve under a canceled context")
	}
}

// pointKeyOracle is the straightforward derivation PointKeys must
// reproduce byte for byte: the full key material, triad included,
// marshaled and hashed per point.
func pointKeyOracle(cfg charz.Config, tr triad.Triad) (string, error) {
	m, err := pointKeyMaterial(cfg)
	if err != nil {
		return "", err
	}
	m.Tclk, m.Vdd, m.Vbb = tr.Tclk, tr.Vdd, tr.Vbb
	data, err := json.Marshal(m)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:]), nil
}

// TestPointKeysMatchOracle: the spliced encoding hashes exactly the
// bytes a per-point json.Marshal of the key material would — for every
// arch, both the gate and model backends, random triads, and floats
// JSON prints in exponent form — so existing disk caches and journals
// keep hitting.
func TestPointKeysMatchOracle(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 11))
	trs := []triad.Triad{
		{Tclk: 0.5, Vdd: 0.8, Vbb: 0},
		{Tclk: 1e-7, Vdd: 1e21, Vbb: 2},
		{Tclk: 5e-324, Vdd: 1.5e300, Vbb: 1e-6},
		{Tclk: 9.999999e-7, Vdd: 1e20, Vbb: 123456789.125},
		{Tclk: 0.1 + 0.2, Vdd: 1.0 / 3, Vbb: math.Nextafter(2, 3)},
	}
	for i := 0; i < 40; i++ {
		trs = append(trs, triad.Triad{
			Tclk: rng.Float64() * math.Pow(10, float64(rng.IntN(30)-15)),
			Vdd:  rng.Float64() * 1.2,
			Vbb:  float64(rng.IntN(3)) * rng.Float64(),
		})
	}
	for _, arch := range synth.Arches() {
		for _, backend := range []charz.Backend{charz.BackendGate, charz.BackendModel} {
			cfg := charz.Config{Arch: arch, Width: 8, Patterns: 300, Seed: 5, Backend: backend}
			keys, err := PointKeys(cfg, trs)
			if err != nil {
				t.Fatal(err)
			}
			for i, tr := range trs {
				want, err := pointKeyOracle(cfg, tr)
				if err != nil {
					t.Fatal(err)
				}
				if keys[i] != want {
					t.Fatalf("%s/%s triad %+v: PointKeys %s, oracle %s", arch, backend, tr, keys[i], want)
				}
				if one, err := PointKey(cfg, tr); err != nil || one != want {
					t.Fatalf("%s/%s triad %+v: PointKey %s (%v), oracle %s", arch, backend, tr, one, err, want)
				}
			}
		}
	}
	// Values JSON cannot encode fail in both.
	for _, bad := range []float64{math.NaN(), math.Inf(1)} {
		tr := triad.Triad{Tclk: 0.5, Vdd: bad}
		if _, err := PointKeys(testConfig(), []triad.Triad{tr}); err == nil {
			t.Errorf("PointKeys accepted Vdd=%v", bad)
		}
		if _, err := pointKeyOracle(testConfig(), tr); err == nil {
			t.Errorf("oracle accepted Vdd=%v", bad)
		}
	}
}
