// Package edgecache is the in-memory segment cache behind the httpdash
// edge tier: a byte-capped store sharded across power-of-two LRU
// shards, keyed by an internal/rng hash of the segment path
// ("<rung>/<segment>"), with a lock-free eviction counter.
// Each shard owns an intrusive LRU list under its own mutex, so
// concurrent requests for different keys rarely contend, and the
// per-shard byte budget bounds total memory no matter what the
// workload looks like. Entries are immutable after Fill: a cache hit
// hands back the shared payload slice and the serving path writes it
// without copying.
package edgecache

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"ecavs/internal/rng"
)

// DefaultShards is the shard count used when Config leaves it zero:
// enough to keep a 16-worker load off any single mutex without
// fragmenting the byte budget into uselessly small slices.
const DefaultShards = 16

// Config sizes a Cache.
type Config struct {
	// CapacityBytes is the total payload budget across all shards
	// (required, > 0). Each shard gets an equal slice; an entry larger
	// than its shard's slice is served but never cached.
	CapacityBytes int64
	// Shards is the shard count (power of two; 0 = DefaultShards).
	Shards int
}

func (c Config) validate() error {
	if c.CapacityBytes <= 0 {
		return errors.New("edgecache: CapacityBytes must be positive")
	}
	if c.Shards < 0 || (c.Shards != 0 && c.Shards&(c.Shards-1) != 0) {
		return errors.New("edgecache: Shards must be a power of two")
	}
	return nil
}

// Entry is one cached segment. Data and the pre-rendered response
// headers are immutable after the entry is filled; FilledAt anchors the
// edge's freshness/staleness policy.
type Entry struct {
	// Key is the cache key ("<repID>/<segment>.m4s" at the edge).
	Key string
	// Data is the payload, shared with every reader — never mutate it.
	Data []byte
	// ContentType and ContentLength are the response headers, rendered
	// once at fill time so the hit path never formats integers.
	ContentType   string
	ContentLength string
	// FilledAt is when the entry was (re)filled from the origin.
	FilledAt time.Time

	// Intrusive LRU links, owned by the shard mutex.
	prev, next *Entry
}

// Stats is a point-in-time copy of the cache's eviction count and
// residency. Hits and fills are the edge's to count: it knows which
// hits are fresh and which fills were shared.
type Stats struct {
	// Evictions counts entries displaced to make room.
	Evictions int64
	// Bytes and Entries describe current residency.
	Bytes, Entries int64
}

// Cache is the sharded store. Construct with New; the zero value is
// unusable.
type Cache struct {
	shards []shard
	mask   uint64

	evictions atomic.Int64
}

// shard is one LRU slice of the byte budget. The sentinel head makes
// list surgery branch-free: head.next is most recent, head.prev least.
type shard struct {
	mu       sync.Mutex
	entries  map[string]*Entry
	head     Entry // sentinel
	bytes    int64
	capacity int64
}

// New builds a cache from cfg.
func New(cfg Config) (*Cache, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	n := cfg.Shards
	if n == 0 {
		n = DefaultShards
	}
	c := &Cache{shards: make([]shard, n), mask: uint64(n - 1)}
	per := cfg.CapacityBytes / int64(n)
	if per < 1 {
		per = 1
	}
	for i := range c.shards {
		s := &c.shards[i]
		s.entries = make(map[string]*Entry)
		s.capacity = per
		s.head.prev, s.head.next = &s.head, &s.head
	}
	return c, nil
}

// hashKey folds the key bytes through the internal/rng finalizer, one
// stream step per byte, so shard assignment is deterministic, well
// mixed, and free of any per-process seed.
func hashKey(key string) uint64 {
	h := uint64(rng.Gamma)
	for i := 0; i < len(key); i++ {
		h = rng.Mix(h + uint64(key[i]) + rng.Gamma)
	}
	return h
}

func (c *Cache) shardFor(key string) *shard {
	return &c.shards[hashKey(key)&c.mask]
}

// Get returns the entry for key (freshest first in its shard's LRU) or
// nil. It returns an entry that is stale by the caller's policy too:
// the cache tracks residency, the edge tracks freshness.
func (c *Cache) Get(key string) *Entry {
	s := c.shardFor(key)
	s.mu.Lock()
	e := s.entries[key]
	if e != nil {
		// Move to front: most recently used sits at head.next.
		e.unlink()
		s.pushFront(e)
	}
	s.mu.Unlock()
	return e
}

// Fill stores a freshly fetched payload under key, evicting from the
// shard's LRU tail until it fits, and returns the stored entry. A
// payload larger than the shard's byte budget is returned as an
// unstored entry (cached == false) — the caller can still serve it,
// it just will not be a future hit. Refilling an existing key replaces
// the entry in place in the accounting.
func (c *Cache) Fill(key string, data []byte, contentType, contentLength string, now time.Time) (e *Entry, cached bool) {
	e = &Entry{
		Key:           key,
		Data:          data,
		ContentType:   contentType,
		ContentLength: contentLength,
		FilledAt:      now,
	}
	s := c.shardFor(key)
	size := int64(len(data))
	if size > s.capacity {
		return e, false
	}
	s.mu.Lock()
	if old := s.entries[key]; old != nil {
		old.unlink()
		s.bytes -= int64(len(old.Data))
		delete(s.entries, key)
	}
	for s.bytes+size > s.capacity {
		lru := s.head.prev // least recently used
		lru.unlink()
		s.bytes -= int64(len(lru.Data))
		delete(s.entries, lru.Key)
		c.evictions.Add(1)
	}
	s.entries[key] = e
	s.bytes += size
	s.pushFront(e)
	s.mu.Unlock()
	return e, true
}

// Remove drops key if present — the edge uses it to retire an entry
// whose staleness window ran out on a failed revalidation.
func (c *Cache) Remove(key string) {
	s := c.shardFor(key)
	s.mu.Lock()
	if e := s.entries[key]; e != nil {
		e.unlink()
		s.bytes -= int64(len(e.Data))
		delete(s.entries, key)
	}
	s.mu.Unlock()
}

// Stats samples the eviction counter and current residency.
func (c *Cache) Stats() Stats {
	st := Stats{Evictions: c.evictions.Load()}
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		st.Bytes += s.bytes
		st.Entries += int64(len(s.entries))
		s.mu.Unlock()
	}
	return st
}

func (e *Entry) unlink() {
	e.prev.next = e.next
	e.next.prev = e.prev
	e.prev, e.next = nil, nil
}

func (s *shard) pushFront(e *Entry) {
	e.prev = &s.head
	e.next = s.head.next
	s.head.next.prev = e
	s.head.next = e
}
