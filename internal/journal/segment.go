package journal

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"
)

// This file is the single definition of the append-only segment format
// every durable byte of a deployment shares — the checkpoint journal and
// its snapshot (journal.go), the spill overflow store (spill.go), and the
// per-shard completion segments of a sharded master (internal/shard):
//
//	record  := magic(0xA7) | uvarint(idx) | uvarint(len(payload)) | payload | crc32
//	crc32   := IEEE checksum of everything before it, little-endian
//
// One framing, one parser, one torn-tail recovery path: any reader takes
// the longest valid record prefix of a file and treats the rest as the
// partial write of a crash, so a segment producer never needs a commit
// protocol beyond "append, then fsync when durability is due".

// recordMagic starts every record; a resync guard against garbage.
const recordMagic = 0xA7

// maxPayload bounds a single record so a corrupt length cannot make
// recovery attempt a multi-gigabyte allocation.
const maxPayload = 64 << 20

// Entry is one recovered completion record.
type Entry struct {
	Idx  int
	Data []byte
}

// appendRecord frames one record into buf.
func appendRecord(buf []byte, idx int, payload []byte) []byte {
	start := len(buf)
	buf = append(buf, recordMagic)
	buf = binary.AppendUvarint(buf, uint64(idx))
	buf = binary.AppendUvarint(buf, uint64(len(payload)))
	buf = append(buf, payload...)
	sum := crc32.ChecksumIEEE(buf[start:])
	return binary.LittleEndian.AppendUint32(buf, sum)
}

// parseRecord decodes one record at the start of b, returning the
// consumed length. ok is false on any framing, bounds or checksum error.
func parseRecord(b []byte) (idx int, payload []byte, consumed int, ok bool) {
	if len(b) < 1 || b[0] != recordMagic {
		return 0, nil, 0, false
	}
	off := 1
	u, n := binary.Uvarint(b[off:])
	if n <= 0 || u > uint64(int(^uint(0)>>1)) {
		return 0, nil, 0, false
	}
	off += n
	ln, n := binary.Uvarint(b[off:])
	if n <= 0 || ln > maxPayload {
		return 0, nil, 0, false
	}
	off += n
	if uint64(len(b)-off) < ln+4 {
		return 0, nil, 0, false
	}
	end := off + int(ln)
	sum := binary.LittleEndian.Uint32(b[end : end+4])
	if crc32.ChecksumIEEE(b[:end]) != sum {
		return 0, nil, 0, false
	}
	payload = append([]byte(nil), b[off:end]...)
	return int(u), payload, end + 4, true
}

// scan parses records from data, invoking emit for each valid one, and
// returns the byte length of the longest valid prefix plus how many
// records it held. It never panics on malformed input.
func scan(data []byte, emit func(idx int, payload []byte)) (prefix, n int) {
	off := 0
	for off < len(data) {
		idx, payload, next, ok := parseRecord(data[off:])
		if !ok {
			return off, n
		}
		emit(idx, payload)
		off += next
		n++
	}
	return off, n
}

// readRecord reads and validates one record from br. ok is false at the
// end of the stream or on the first damaged record.
func readRecord(br *bufio.Reader) (Entry, bool) {
	magic, err := br.ReadByte()
	if err != nil || magic != recordMagic {
		return Entry{}, false
	}
	head := []byte{recordMagic}
	readUvarint := func() (uint64, bool) {
		var u uint64
		for shift := 0; shift < 64; shift += 7 {
			b, err := br.ReadByte()
			if err != nil {
				return 0, false
			}
			head = append(head, b)
			u |= uint64(b&0x7F) << shift
			if b&0x80 == 0 {
				return u, true
			}
		}
		return 0, false
	}
	idx, ok := readUvarint()
	if !ok || idx > uint64(int(^uint(0)>>1)) {
		return Entry{}, false
	}
	ln, ok := readUvarint()
	if !ok || ln > maxPayload {
		return Entry{}, false
	}
	payload := make([]byte, ln)
	if _, err := io.ReadFull(br, payload); err != nil {
		return Entry{}, false
	}
	var crc [4]byte
	if _, err := io.ReadFull(br, crc[:]); err != nil {
		return Entry{}, false
	}
	sum := crc32.ChecksumIEEE(head)
	sum = crc32.Update(sum, crc32.IEEETable, payload)
	if sum != binary.LittleEndian.Uint32(crc[:]) {
		return Entry{}, false
	}
	return Entry{Idx: int(idx), Data: payload}, true
}

// openRecovered opens (creating if necessary) the record file at path,
// replays its longest valid record prefix through emit, truncates any
// torn tail back to the last record boundary, and leaves the file
// positioned for appends. Both the checkpoint journal's log and shard
// segments recover through this one path.
func openRecovered(path string, emit func(idx int, payload []byte)) (*os.File, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("journal: open %s: %w", path, err)
	}
	data, err := io.ReadAll(f)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("journal: read %s: %w", path, err)
	}
	prefix, _ := scan(data, emit)
	if prefix < len(data) {
		// Torn tail from a crash: truncate back to the last valid record
		// so the next append starts on a record boundary.
		if err := f.Truncate(int64(prefix)); err != nil {
			f.Close()
			return nil, fmt.Errorf("journal: truncate torn tail of %s: %w", path, err)
		}
	}
	if _, err := f.Seek(int64(prefix), io.SeekStart); err != nil {
		f.Close()
		return nil, fmt.Errorf("journal: seek %s: %w", path, err)
	}
	return f, nil
}

// ReadSegment returns the valid record prefix of the file at path, in
// file order, tolerating a torn tail. A missing file is an empty segment.
func ReadSegment(path string) ([]Entry, error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("journal: read segment %s: %w", path, err)
	}
	var out []Entry
	scan(data, func(idx int, payload []byte) {
		out = append(out, Entry{Idx: idx, Data: payload})
	})
	return out, nil
}

// SegmentPath names one shard's completion segment: dir/base.shardNN.eE.seg,
// where shard identifies the owned range set and epoch counts ownership
// hand-offs — a migrated range continues in a fresh epoch file seeded from
// a copy of its predecessor, so both files coexist during the hand-off and
// an operator can see the lineage on disk.
func SegmentPath(dir, base string, shard, epoch int) string {
	return filepath.Join(dir, fmt.Sprintf("%s.shard%02d.e%d.seg", base, shard, epoch))
}

// CopySegment copies the valid record prefix of src to dst (write to a
// temporary file, fsync, atomic rename): the journal-segment file copy of
// a shard hand-off. A torn tail on src — the crash that triggered the
// migration — is dropped, not propagated; those results are simply
// recomputed by the adopting shard. Returns how many records were copied.
func CopySegment(src, dst string) (int, error) {
	data, err := os.ReadFile(src)
	if err != nil {
		return 0, fmt.Errorf("journal: copy segment: %w", err)
	}
	prefix, n := scan(data, func(int, []byte) {})
	dir := filepath.Dir(dst)
	tmp, err := os.CreateTemp(dir, filepath.Base(dst)+".tmp-*")
	if err != nil {
		return 0, fmt.Errorf("journal: copy segment tmp: %w", err)
	}
	tmpName := tmp.Name()
	_, werr := tmp.Write(data[:prefix])
	if werr == nil {
		werr = tmp.Sync()
	}
	if cerr := tmp.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		os.Remove(tmpName)
		return 0, fmt.Errorf("journal: copy segment write: %w", werr)
	}
	if err := os.Rename(tmpName, dst); err != nil {
		os.Remove(tmpName)
		return 0, fmt.Errorf("journal: copy segment rename: %w", err)
	}
	if err := syncDir(dir); err != nil {
		return 0, fmt.Errorf("journal: copy segment dir sync: %w", err)
	}
	return n, nil
}

// Segment is one shard's append-only completion log: the record format
// and torn-tail recovery of the checkpoint journal without its snapshot
// and fsync machinery. A shard records each (global index, encoded
// result) as its engine accepts it; on migration the file is copied to
// the adopting shard, whose segment recovers the entries and dedups
// appends against them — re-recording a recovered index is a no-op, so a
// recomputed result never doubles an entry.
//
// Appends are buffered; Sync flushes and fsyncs (the barrier a hand-off
// takes before copying). It is safe for concurrent use.
type Segment struct {
	path string

	mu        sync.Mutex
	f         *os.File
	w         *bufio.Writer
	known     map[int]struct{}
	recovered int
	dirty     bool
	closed    bool
}

// OpenSegment opens (creating if necessary) the segment at path,
// recovering the valid record prefix a previous owner left behind. The
// parent directory must exist.
func OpenSegment(path string) (*Segment, error) {
	s := &Segment{path: path, known: make(map[int]struct{})}
	f, err := openRecovered(path, func(idx int, payload []byte) {
		s.known[idx] = struct{}{}
	})
	if err != nil {
		return nil, err
	}
	s.f = f
	s.w = bufio.NewWriter(f)
	s.recovered = len(s.known)
	return s, nil
}

// Record appends one completion. Re-recording a known index — a restored
// entry or a migration replay — is a no-op.
func (s *Segment) Record(idx int, payload []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if _, known := s.known[idx]; known {
		return nil
	}
	rec := appendRecord(nil, idx, payload)
	if _, err := s.w.Write(rec); err != nil {
		return fmt.Errorf("journal: segment append: %w", err)
	}
	s.known[idx] = struct{}{}
	s.dirty = true
	return nil
}

// Len reports how many distinct indices the segment holds.
func (s *Segment) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.known)
}

// Recovered reports how many entries OpenSegment restored from disk.
func (s *Segment) Recovered() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.recovered
}

// Path returns the segment's file path.
func (s *Segment) Path() string { return s.path }

// Completed returns the segment's entries re-read from disk in file
// order (payloads are not cached in memory). Buffered appends are flushed
// first so the read sees them through the page cache.
func (s *Segment) Completed() ([]Entry, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.w != nil {
		if err := s.w.Flush(); err != nil {
			return nil, fmt.Errorf("journal: segment flush: %w", err)
		}
	}
	return ReadSegment(s.path)
}

// Sync flushes buffered records and fsyncs the file: the durability
// barrier a migration takes before copying the segment.
func (s *Segment) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if !s.dirty {
		return nil
	}
	if err := s.w.Flush(); err != nil {
		return fmt.Errorf("journal: segment flush: %w", err)
	}
	if err := s.f.Sync(); err != nil {
		return fmt.Errorf("journal: segment fsync: %w", err)
	}
	s.dirty = false
	return nil
}

// Close flushes and closes the segment file (it stays on disk — a
// segment is the durable record of its range; remove it explicitly when
// the run's output is no longer needed).
func (s *Segment) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	err := s.w.Flush()
	if cerr := s.f.Close(); err == nil {
		err = cerr
	}
	return err
}
