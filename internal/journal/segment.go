package journal

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"slices"
)

// This file is the single definition of the append-only segment format
// every durable byte of a deployment shares — the checkpoint journal and
// its snapshot (journal.go) and the spill overflow store (spill.go):
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

// parseHeader decodes the framing in front of a record's payload at the
// start of b: its index, its payload length and the header's length. ok
// is false on a bad magic, a malformed uvarint or an out-of-bounds value.
func parseHeader(b []byte) (idx, ln uint64, off int, ok bool) {
	if len(b) < 1 || b[0] != recordMagic {
		return 0, 0, 0, false
	}
	off = 1
	idx, n := binary.Uvarint(b[off:])
	if n <= 0 || idx > uint64(int(^uint(0)>>1)) {
		return 0, 0, 0, false
	}
	off += n
	ln, n = binary.Uvarint(b[off:])
	if n <= 0 || ln > maxPayload {
		return 0, 0, 0, false
	}
	return idx, ln, off + n, true
}

// parseRecord decodes one record at the start of b, returning the
// consumed length. ok is false on any framing, bounds or checksum error.
func parseRecord(b []byte) (idx int, payload []byte, consumed int, ok bool) {
	u, ln, off, ok := parseHeader(b)
	if !ok || uint64(len(b)-off) < ln+4 {
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

// maxHeader is the longest record header: the magic and two uvarints.
const maxHeader = 1 + 2*binary.MaxVarintLen64

// readRecord reads one record from br, whose buffer holds at least
// maxHeader bytes, into *buf (reused across calls) and validates it with
// parseRecord. ok is false at the end of the stream or on the first
// damaged record.
func readRecord(br *bufio.Reader, buf *[]byte) (Entry, bool) {
	head, _ := br.Peek(maxHeader) // shorter near the end of the stream
	_, ln, off, ok := parseHeader(head)
	if !ok {
		return Entry{}, false
	}
	*buf = slices.Grow((*buf)[:0], off+int(ln)+4)[:off+int(ln)+4]
	if _, err := io.ReadFull(br, *buf); err != nil {
		return Entry{}, false
	}
	idx, payload, _, ok := parseRecord(*buf)
	return Entry{Idx: idx, Data: payload}, ok
}

// openRecovered opens (creating if necessary) the record file at path,
// replays its longest valid record prefix through emit, truncates any
// torn tail back to the last record boundary, and leaves the file
// positioned for appends. The checkpoint journal's log recovers through
// it.
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
