package edgecache

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

// FuzzCacheKey drives the cache with arbitrary wire keys (the edge's
// keys come from request paths) at 1 to 64 shards. The hash is
// deterministic; equal keys, including a copy made through []byte,
// land on the same shard, and its index is below the shard count;
// Fill then Get returns the key and payload; Remove then Get misses,
// and residency returns to empty.
func FuzzCacheKey(f *testing.F) {
	f.Add("", uint8(0))
	f.Add("v5/17.m4s", uint8(4))
	f.Add("\xff\xfe/\x00\xc3(", uint8(3))
	f.Add(strings.Repeat("k", 64<<10), uint8(6))
	f.Fuzz(func(t *testing.T, key string, exp uint8) {
		n := 1 << (exp % 7)
		data := append([]byte("seg:"), key...)
		c, err := New(Config{CapacityBytes: int64(n) * int64(len(data)), Shards: n})
		if err != nil {
			t.Fatal(err)
		}
		same := string([]byte(key))
		if h := hashKey(key); h != hashKey(key) || h != hashKey(same) {
			t.Fatalf("hashKey(%q) is not deterministic", key)
		}
		idx := hashKey(key) & c.mask
		if idx >= uint64(len(c.shards)) {
			t.Fatalf("shard index %d of %d shards", idx, len(c.shards))
		}
		if s := c.shardFor(key); s != &c.shards[idx] || c.shardFor(same) != s {
			t.Fatalf("equal keys %q land on different shards", key)
		}

		if _, cached := c.Fill(key, data, "video/mp4", "0", time.Unix(0, 0)); !cached {
			t.Fatalf("a %d-byte payload was not cached in a %d-byte shard", len(data), c.shards[idx].capacity)
		}
		e := c.Get(same)
		if e == nil || e.Key != key || !bytes.Equal(e.Data, data) {
			t.Fatalf("Get(%q) after Fill = %+v", key, e)
		}
		c.Remove(same)
		if e := c.Get(key); e != nil {
			t.Fatalf("Get(%q) after Remove = %+v", key, e)
		}
		if st := c.Stats(); st.Entries != 0 || st.Bytes != 0 {
			t.Fatalf("after Remove: %d entries, %d bytes resident", st.Entries, st.Bytes)
		}
	})
}
