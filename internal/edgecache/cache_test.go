package edgecache

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

func mustNew(t *testing.T, cfg Config) *Cache {
	t.Helper()
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("zero capacity accepted")
	}
	if _, err := New(Config{CapacityBytes: 100, Shards: 3}); err == nil {
		t.Error("non-power-of-two shard count accepted")
	}
	if _, err := New(Config{CapacityBytes: 100, Shards: -2}); err == nil {
		t.Error("negative shard count accepted")
	}
	c := mustNew(t, Config{CapacityBytes: 100})
	if len(c.shards) != DefaultShards {
		t.Errorf("default shards = %d, want %d", len(c.shards), DefaultShards)
	}
}

func TestFillGetRoundTrip(t *testing.T) {
	c := mustNew(t, Config{CapacityBytes: 1 << 20, Shards: 4})
	now := time.Unix(100, 0)
	if got := c.Get("r0/0.m4s"); got != nil {
		t.Fatalf("cold Get returned %v", got)
	}
	e, cached := c.Fill("r0/0.m4s", []byte("payload"), "video/iso.segment", "7", now)
	if !cached {
		t.Fatal("small entry not cached")
	}
	got := c.Get("r0/0.m4s")
	if got != e || string(got.Data) != "payload" || got.ContentLength != "7" || !got.FilledAt.Equal(now) {
		t.Fatalf("Get returned %+v, want the filled entry", got)
	}
	if st := c.Stats(); st.Entries != 1 || st.Bytes != 7 {
		t.Errorf("stats %+v after one fill", st)
	}
}

func TestRefillReplacesInPlace(t *testing.T) {
	c := mustNew(t, Config{CapacityBytes: 1 << 10, Shards: 1})
	c.Fill("k", make([]byte, 100), "t", "100", time.Unix(1, 0))
	c.Fill("k", make([]byte, 200), "t", "200", time.Unix(2, 0))
	st := c.Stats()
	if st.Entries != 1 || st.Bytes != 200 {
		t.Errorf("after refill: entries %d bytes %d, want 1/200", st.Entries, st.Bytes)
	}
	if e := c.Get("k"); len(e.Data) != 200 || !e.FilledAt.Equal(time.Unix(2, 0)) {
		t.Errorf("refill did not replace the entry: %+v", e)
	}
}

// One shard, byte cap for exactly three 100-byte entries: filling a
// fourth must evict the least recently used, and a Get in between must
// protect its entry from that eviction.
func TestLRUEvictionOrder(t *testing.T) {
	c := mustNew(t, Config{CapacityBytes: 300, Shards: 1})
	now := time.Unix(1, 0)
	for i := 0; i < 3; i++ {
		c.Fill(fmt.Sprintf("k%d", i), make([]byte, 100), "t", "100", now)
	}
	c.Get("k0") // refresh k0: k1 becomes LRU
	c.Fill("k3", make([]byte, 100), "t", "100", now)
	if c.Get("k1") != nil {
		t.Error("k1 survived eviction despite being LRU")
	}
	for _, k := range []string{"k0", "k2", "k3"} {
		if c.Get(k) == nil {
			t.Errorf("%s evicted out of LRU order", k)
		}
	}
	st := c.Stats()
	if st.Evictions != 1 || st.Bytes != 300 || st.Entries != 3 {
		t.Errorf("stats %+v, want 1 eviction, 300 bytes, 3 entries", st)
	}
}

func TestOversizeEntryNotCached(t *testing.T) {
	c := mustNew(t, Config{CapacityBytes: 64, Shards: 2}) // 32 bytes per shard
	e, cached := c.Fill("big", make([]byte, 100), "t", "100", time.Unix(1, 0))
	if cached || e == nil || len(e.Data) != 100 {
		t.Fatalf("oversize fill: cached=%v entry=%v", cached, e)
	}
	if c.Get("big") != nil {
		t.Error("oversize entry was stored")
	}
	if st := c.Stats(); st.Entries != 0 || st.Bytes != 0 {
		t.Errorf("stats %+v, want empty residency", st)
	}
}

func TestRemove(t *testing.T) {
	c := mustNew(t, Config{CapacityBytes: 1 << 10, Shards: 1})
	c.Fill("k", make([]byte, 10), "t", "10", time.Unix(1, 0))
	c.Remove("k")
	c.Remove("k") // idempotent
	if c.Get("k") != nil {
		t.Error("entry survived Remove")
	}
	if st := c.Stats(); st.Entries != 0 || st.Bytes != 0 {
		t.Errorf("residency %+v after Remove", st)
	}
}

func TestShardingSpreadsKeys(t *testing.T) {
	c := mustNew(t, Config{CapacityBytes: 1 << 20, Shards: 8})
	for i := 0; i < 256; i++ {
		c.Fill(fmt.Sprintf("r%d/%d.m4s", i%10, i), []byte{0}, "t", "1", time.Unix(1, 0))
	}
	occupied := 0
	for i := range c.shards {
		c.shards[i].mu.Lock()
		if len(c.shards[i].entries) > 0 {
			occupied++
		}
		c.shards[i].mu.Unlock()
	}
	if occupied < len(c.shards)/2 {
		t.Errorf("256 keys landed in only %d of %d shards — hash is not spreading", occupied, len(c.shards))
	}
}

// TestEdgeCacheHammer is the 16-goroutine concurrency storm the chaos
// suite runs under -race: concurrent hits, misses, fills, refills,
// removals, and evictions (the byte cap is far smaller than the
// working set) on overlapping keys. Afterwards residency must respect
// the byte cap and agree with the LRU lists.
func TestEdgeCacheHammer(t *testing.T) {
	const (
		goroutines = 16
		iterations = 2000
		keys       = 64
	)
	c := mustNew(t, Config{CapacityBytes: 16 * 100, Shards: 4}) // ~16 of 64 keys fit
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			now := time.Unix(int64(g), 0)
			for i := 0; i < iterations; i++ {
				key := fmt.Sprintf("r%d/%d.m4s", (g+i)%4, (g*7+i)%keys)
				if e := c.Get(key); e == nil {
					c.Fill(key, make([]byte, 100), "t", "100", now)
				} else if len(e.Data) != 100 {
					t.Errorf("torn entry: %d bytes", len(e.Data))
					return
				}
				if i%97 == 0 {
					c.Remove(key)
				}
			}
		}(g)
	}
	wg.Wait()

	st := c.Stats()
	if st.Bytes > 16*100 {
		t.Errorf("residency %d bytes exceeds the %d cap", st.Bytes, 16*100)
	}
	if st.Entries*100 != st.Bytes {
		t.Errorf("entries %d inconsistent with bytes %d", st.Entries, st.Bytes)
	}
	if st.Evictions == 0 {
		t.Error("hammer never evicted despite capacity pressure")
	}
	// The LRU lists must still be coherent: every resident entry
	// reachable from its shard's sentinel, and vice versa.
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n := 0
		for e := s.head.next; e != &s.head; e = e.next {
			if s.entries[e.Key] != e {
				t.Errorf("shard %d: listed entry %q not in map", i, e.Key)
			}
			n++
		}
		if n != len(s.entries) {
			t.Errorf("shard %d: list has %d entries, map has %d", i, n, len(s.entries))
		}
		s.mu.Unlock()
	}
}

func BenchmarkCacheGetHit(b *testing.B) {
	c, err := New(Config{CapacityBytes: 1 << 20, Shards: 16})
	if err != nil {
		b.Fatal(err)
	}
	c.Fill("r0/0.m4s", make([]byte, 1024), "t", "1024", time.Unix(1, 0))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if c.Get("r0/0.m4s") == nil {
			b.Fatal("lost entry")
		}
	}
}

// TestHashKeyGolden pins the shard hash bit for bit, so which shard a
// key lands in — and therefore every per-shard LRU eviction order —
// survives a change of how the mixing function is spelled.
func TestHashKeyGolden(t *testing.T) {
	keys := []string{"a", "v5/17.m4s", "v0/0.m4s", "manifest.mpd"}
	want := []uint64{0xcfcbbc26a92eae52, 0xb4e0961606e05ca9, 0x3023473f57397d4c, 0x1e06e3a0e59b4de6}
	got := make([]uint64, len(keys))
	for i, k := range keys {
		got[i] = hashKey(k)
	}
	if len(want) != len(got) {
		t.Fatalf("hashes = %#x", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("hashKey(%q) = %#x, want %#x", keys[i], got[i], want[i])
		}
	}
}
