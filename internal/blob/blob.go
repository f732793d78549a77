// Package blob implements content-addressed payload storage for the
// '/pando/2.2.0' dedup extension: a master-side intern table that
// remembers payload blocks the job sent more than once, and a worker-side
// size-capped LRU cache that resolves blob references back to bytes.
//
// The intern table admits a payload on its second sighting. A bounded
// doorkeeper of 64-bit maphash keys remembers payloads seen once; only a
// payload it recognises is hashed with SHA-256, stored, and sent with its
// digest. Most of a stream's large inputs are never seen twice, so they
// cross as plain data: neither store holds a copy nor hashes them.
//
// Both stores key entries by the SHA-256 of the payload, so an entry is
// valid wherever it is found — a worker's cache safely survives fleet
// reassignment across jobs, because a digest from one job can only ever
// resolve to the exact bytes it named. The cache verifies digests on
// insert (a master sending mismatched bytes is a protocol violation) and
// again on every lookup (a corrupted or poisoned entry must surface as an
// error, degrading to crash-stop, never as wrong data handed to a
// processing function).
package blob

import (
	"container/list"
	"crypto/sha256"
	"errors"
	"hash/maphash"
	"sync"
	"sync/atomic"
)

// Digest is the SHA-256 content address of a payload block.
type Digest = [sha256.Size]byte

// Sum returns the content address of data.
func Sum(data []byte) Digest { return sha256.Sum256(data) }

// SumOf converts a wire-format digest field (32 raw bytes) to a Digest,
// copying it out of whatever frame buffer it aliases.
func SumOf(b []byte) (Digest, bool) {
	var d Digest
	if len(b) != sha256.Size {
		return d, false
	}
	copy(d[:], b)
	return d, true
}

// ErrDigestMismatch reports content that does not hash to the digest it
// was stored or transmitted under. It is fatal for the channel that
// surfaced it: the stack treats it like frame corruption (crash-stop).
var ErrDigestMismatch = errors.New("blob: content does not match digest")

// DefaultCacheBytes is the worker cache cap when the volunteer does not
// configure one.
const DefaultCacheBytes = 32 << 20

// DefaultInternBytes is the master intern-table cap when the deployment
// does not configure one.
const DefaultInternBytes = 64 << 20

type entry struct {
	d    Digest
	data []byte
}

// store is the shared LRU machinery: a size-capped digest → bytes map
// with least-recently-used eviction.
type store struct {
	mu      sync.Mutex
	max     int64
	size    int64
	order   *list.List // front = most recently used; values are *entry
	entries map[Digest]*list.Element
}

func newStore(maxBytes int64) *store {
	return &store{
		max:     maxBytes,
		order:   list.New(),
		entries: make(map[Digest]*list.Element),
	}
}

// add inserts a copy of data under d, evicting LRU entries to stay under
// the cap. Inserting an existing digest refreshes its recency.
func (s *store) add(d Digest, data []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.entries[d]; ok {
		s.order.MoveToFront(el)
		return
	}
	e := &entry{d: d, data: append([]byte(nil), data...)}
	s.entries[d] = s.order.PushFront(e)
	s.size += int64(len(e.data))
	for s.size > s.max && s.order.Len() > 1 {
		el := s.order.Back()
		victim := el.Value.(*entry)
		s.order.Remove(el)
		delete(s.entries, victim.d)
		s.size -= int64(len(victim.data))
	}
}

// get returns the bytes stored under d, refreshing recency. The returned
// slice is the store's copy: callers must not mutate it.
func (s *store) get(d Digest) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	el, found := s.entries[d]
	if !found {
		return nil, false
	}
	s.order.MoveToFront(el)
	return el.Value.(*entry).data, true
}

// drop removes d if present.
func (s *store) drop(d Digest) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.entries[d]; ok {
		victim := el.Value.(*entry)
		s.order.Remove(el)
		delete(s.entries, d)
		s.size -= int64(len(victim.data))
	}
}

// Cache is the worker-side blob cache: size-capped, LRU, digest-verified
// on insert and on every get.
type Cache struct{ s *store }

// NewCache returns a cache capped at maxBytes. Zero means
// DefaultCacheBytes; negative degenerates to a single most-recent block
// (the LRU never evicts its newest entry), which effectively disables
// cross-input reuse while keeping the reference protocol functional.
func NewCache(maxBytes int64) *Cache {
	if maxBytes == 0 {
		maxBytes = DefaultCacheBytes
	} else if maxBytes < 0 {
		maxBytes = 1
	}
	return &Cache{s: newStore(maxBytes)}
}

// Put verifies that data hashes to d and stores a copy. A mismatch means
// the sender transmitted corrupt content: the caller must fail the
// channel (crash-stop), and nothing is stored.
func (c *Cache) Put(d Digest, data []byte) error {
	if Sum(data) != d {
		return ErrDigestMismatch
	}
	c.s.add(d, data)
	return nil
}

// Get resolves d. The error return is the poisoned-entry case: the stored
// bytes no longer hash to their digest, which can only mean memory
// corruption (or a test poisoning it) — the entry is dropped and the
// caller must fail the channel rather than risk wrong output. A plain
// miss is (nil, false, nil): the caller fetches from the master. The
// returned bytes are immutable: they stay the cache's (callers must not
// write to them) and the cache never writes to a slice it has handed out.
func (c *Cache) Get(d Digest) ([]byte, bool, error) {
	data, ok := c.s.get(d)
	if !ok {
		return nil, false, nil
	}
	if Sum(data) != d {
		c.s.drop(d)
		return nil, false, ErrDigestMismatch
	}
	return data, true, nil
}

// PoisonNewest corrupts the most-recently-used entry, if any — the
// seeded chaos schedule's form of poison for when the scenario cannot
// know which digests a worker happens to hold at firing time.
func (c *Cache) PoisonNewest() bool {
	c.s.mu.Lock()
	defer c.s.mu.Unlock()
	el := c.s.order.Front()
	return el != nil && el.Value.(*entry).poison()
}

// poison corrupts the entry stored under d, if present — the test hook
// that proves a corrupted cache entry degrades to crash-stop instead of
// producing wrong results.
func (c *Cache) poison(d Digest) bool {
	c.s.mu.Lock()
	defer c.s.mu.Unlock()
	el, ok := c.s.entries[d]
	return ok && el.Value.(*entry).poison()
}

// poison swaps the entry's bytes for a clone with one byte flipped. It is
// copy-on-write because Get hands the stored slice out: a volunteer may be
// decoding the old slice right now, and must keep seeing the bytes Get
// verified; only the next Get meets the corruption. Caller holds the
// store's lock.
func (e *entry) poison() bool {
	if len(e.data) == 0 {
		return false
	}
	bad := append([]byte(nil), e.data...)
	bad[len(bad)/2] ^= 0x40
	e.data = bad
	return true
}

// Intern is the master-side content store: payload blocks the job has
// sighted at least twice, kept so blob references can be served on a
// worker's miss. It shares the LRU machinery but does not verify on get —
// the master hashed the bytes itself when interning them. Its doorkeeper
// (Admit) decides which payloads reach the store at all.
type Intern struct {
	s *store

	seed maphash.Seed
	mu   sync.Mutex
	seen map[uint64]struct{} // doorkeeper keys, FIFO-capped by ring
	ring []uint64
	next int
}

// DoorkeeperKeys bounds the intern table's doorkeeper. Past it the oldest
// key is forgotten: that payload's next sighting counts as a first one
// again, which costs one plain send, never correctness.
const DoorkeeperKeys = 8192

// NewIntern returns an intern table capped at maxBytes
// (DefaultInternBytes when maxBytes is 0).
func NewIntern(maxBytes int64) *Intern {
	if maxBytes <= 0 {
		maxBytes = DefaultInternBytes
	}
	return &Intern{s: newStore(maxBytes), seed: maphash.MakeSeed(), seen: make(map[uint64]struct{})}
}

// Admit is the admission rule: it reports whether the job sighted data
// before, and remembers it otherwise. A first sighting (false) travels
// plain — no digest, no intern copy. A 64-bit key collision only admits
// a payload one sighting early.
func (in *Intern) Admit(data []byte) bool {
	k := maphash.Bytes(in.seed, data)
	in.mu.Lock()
	defer in.mu.Unlock()
	if _, ok := in.seen[k]; ok {
		return true
	}
	if len(in.ring) < DoorkeeperKeys {
		in.ring = append(in.ring, k)
	} else {
		delete(in.seen, in.ring[in.next])
		in.ring[in.next] = k
		in.next = (in.next + 1) % DoorkeeperKeys
	}
	in.seen[k] = struct{}{}
	return false
}

// Add stores a copy of data under d (the caller computed d = Sum(data)).
func (in *Intern) Add(d Digest, data []byte) { in.s.add(d, data) }

// Get returns the interned bytes for d. A miss means the cap evicted the
// block since the reference was sent; the caller reports the blob gone
// and lets the channel crash-stop (the engine re-lends the value).
func (in *Intern) Get(d Digest) ([]byte, bool) { return in.s.get(d) }

// FlowStats counts dedup traffic for one worker channel; the master keeps
// one per worker name and merges it into WorkerStats (and the per-job
// /stats JSON). Hits are inputs that travelled as a digest-only
// reference; Misses are blob fetches served because the worker's cache
// could not resolve a reference; Evicts are digests the channel's
// reference tracker forgot, which send later repeats in full again.
type FlowStats struct {
	Hits   atomic.Int64
	Misses atomic.Int64
	Evicts atomic.Int64
}
