package journal

import (
	"errors"
	"fmt"
	"os"
	"sync"
)

// SpillStore is a non-durable overflow segment in the journal's record
// format: the StreamLender parks far-ahead pending results here when its
// reorder window exceeds the configured high-water mark, bounding the
// master's heap at O(window) for arbitrarily long streams (the
// memory-bounded streaming half of the hot-path work).
//
// Unlike the Journal it amortizes nothing and promises no durability —
// a spilled record only needs to outlive the moment the output stream
// reaches its index — so the store is truncated at open, writes skip
// fsync entirely, and Close removes the file. What it shares with the
// journal is the record framing (magic | uvarint idx | uvarint len |
// payload | crc32), so a spilled payload is CRC-checked on the way back
// in: a bad sector degrades to a stream failure, never to silently
// corrupted output.
//
// Concurrency: safe for concurrent use. Appends go through WriteAt at a
// tracked offset and loads through ReadAt, so readers never disturb the
// append position.
type SpillStore struct {
	path string

	mu      sync.Mutex
	f       *os.File
	size    int64 // append offset
	refs    map[int]spillRef
	scratch []byte // reused append frame buffer
	closed  bool
}

// spillRef locates one spilled record in the file.
type spillRef struct {
	off int64
	n   int
}

// ErrNotSpilled reports a Load of an index the store does not hold.
var ErrNotSpilled = errors.New("journal: index not spilled")

// OpenSpill creates (or truncates) the spill segment at path. The parent
// directory must exist. Spilled state is meaningless across runs, so
// nothing is ever recovered from an existing file.
func OpenSpill(path string) (*SpillStore, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, fmt.Errorf("journal: open spill %s: %w", path, err)
	}
	return &SpillStore{
		path: path,
		f:    f,
		refs: make(map[int]spillRef),
	}, nil
}

// Put appends one (index, payload) record. Re-spilling a held index is a
// no-op, mirroring Journal.Record's dedup. The payload is copied to disk
// before Put returns; the caller's buffer is free to recycle.
func (s *SpillStore) Put(idx int, payload []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if _, held := s.refs[idx]; held {
		return nil
	}
	s.scratch = appendRecord(s.scratch[:0], idx, payload)
	if _, err := s.f.WriteAt(s.scratch, s.size); err != nil {
		return fmt.Errorf("journal: spill write: %w", err)
	}
	s.refs[idx] = spillRef{off: s.size, n: len(s.scratch)}
	s.size += int64(len(s.scratch))
	return nil
}

// Load reads one spilled payload back, CRC-verified. The returned slice
// is the caller's to keep. The record stays in the store until Forget.
func (s *SpillStore) Load(idx int) ([]byte, error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, ErrClosed
	}
	ref, held := s.refs[idx]
	s.mu.Unlock()
	if !held {
		return nil, fmt.Errorf("%w: %d", ErrNotSpilled, idx)
	}
	buf := make([]byte, ref.n)
	if _, err := s.f.ReadAt(buf, ref.off); err != nil {
		return nil, fmt.Errorf("journal: spill read %d: %w", idx, err)
	}
	gotIdx, payload, _, ok := parseRecord(buf)
	if !ok || gotIdx != idx {
		return nil, fmt.Errorf("journal: spill record %d corrupt", idx)
	}
	return payload, nil
}

// Forget drops a spilled index once the output stream has consumed it.
// When the last record is forgotten the file truncates back to zero, so
// the segment's disk footprint tracks the live overflow window instead of
// the whole stream.
func (s *SpillStore) Forget(idx int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	delete(s.refs, idx)
	if len(s.refs) == 0 && s.size > 0 {
		if s.f.Truncate(0) == nil {
			s.size = 0
		}
	}
}

// Len reports how many records the store currently holds.
func (s *SpillStore) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.refs)
}

// Bytes reports the segment's current on-disk size.
func (s *SpillStore) Bytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.size
}

// Close closes and removes the segment file; spilled state never outlives
// the run.
func (s *SpillStore) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	err := s.f.Close()
	if rerr := os.Remove(s.path); err == nil && !os.IsNotExist(rerr) {
		err = rerr
	}
	return err
}
