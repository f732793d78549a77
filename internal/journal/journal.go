// Package journal makes a Pando deployment's progress durable: it keeps
// an append-only on-disk log of completed (index, result) records plus
// periodic compacted snapshots, so a master that crashes mid-stream can be
// restarted and resume instead of redoing the whole computation.
//
// The paper's fault tolerance (§2.3) only covers volunteer crash-stop
// failures: the master is a single point of failure and a restart loses
// all progress of a long-running personal workload. BOINC-style volunteer
// computing treats checkpointing as table stakes (Anderson & Fedak); this
// package is the Go deployment's equivalent. The master journals each
// result as the StreamLender accepts it (after speculation dedup, so each
// index is recorded at most once); on restart the recovered completed set
// is handed back to the lender, which skips those indices at the input and
// replays their results to the output in order — the resumed run's output
// stream is byte-for-byte the output an uninterrupted run would have
// produced, with only the unfinished values re-lent to volunteers.
//
// Durability model: records are appended through a buffered writer and
// fsynced in batches on a configurable interval (Options.SyncInterval).
// A crash loses at most the records of the last un-synced batch — those
// values are simply recomputed on resume, never lost or duplicated in the
// output. Recovery tolerates a torn tail: a truncated or corrupt trailing
// record (the partial write of the crash itself) ends replay at the
// longest valid prefix, and the log is truncated back to it so the next
// append starts from a clean boundary.
//
// On-disk format, shared by the log and the snapshot:
//
//	record  := magic(0xA7) | uvarint(idx) | uvarint(len(payload)) | payload | crc32
//	crc32   := IEEE checksum of everything before it, little-endian
//
// The snapshot (path + ".snap") is the same record stream sorted by
// index, written to a temporary file and atomically renamed, then the log
// is truncated — compaction bounds recovery time and file count without a
// second format.
package journal

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// DefaultSyncInterval is the default fsync batching interval. Measured
// when the journal was introduced (CHANGES.md), batching at 100ms keeps
// the journal's end-to-end overhead on the collatz profile well under a
// 15% budget while bounding the crash-loss window to the last tenth of a
// second of results.
const DefaultSyncInterval = 100 * time.Millisecond

// DefaultSnapshotEvery is how many appended records trigger an automatic
// compaction.
const DefaultSnapshotEvery = 8192

// ErrClosed reports use of a closed journal.
var ErrClosed = errors.New("journal: closed")

// Options tunes a Journal.
type Options struct {
	// SyncInterval batches fsyncs: appended records become durable at
	// most this long after Record returns. Zero selects
	// DefaultSyncInterval; negative syncs after every record (safest,
	// slowest).
	SyncInterval time.Duration
	// SnapshotEvery compacts the log into a fresh snapshot after this
	// many appended records. Zero selects DefaultSnapshotEvery; negative
	// disables automatic compaction (Snapshot can still be called).
	SnapshotEvery int
}

func (o Options) syncInterval() time.Duration {
	if o.SyncInterval == 0 {
		return DefaultSyncInterval
	}
	return o.SyncInterval
}

func (o Options) snapshotEvery() int {
	if o.SnapshotEvery == 0 {
		return DefaultSnapshotEvery
	}
	return o.SnapshotEvery
}

// logFile is what the journal needs of its log file (an *os.File); a test
// substitutes one whose Sync fails.
type logFile interface {
	io.WriteSeeker
	Sync() error
	Truncate(size int64) error
	Close() error
}

// Journal is a durable record of completed stream indices and their
// results. It is safe for concurrent use.
//
// Payloads live on disk only: the journal keeps just the set of known
// indices in memory (for dedup and Len), so a million-item stream costs
// a few megabytes of resident memory, not a copy of every result.
// Completed re-reads the files on demand, and compaction streams the old
// snapshot instead of rebuilding it from memory — its transient footprint
// is one inter-snapshot window of log records plus I/O buffers.
type Journal struct {
	path string
	opt  Options

	mu        sync.Mutex
	f         logFile
	w         *bufio.Writer
	known     map[int]struct{} // every completed index (snapshot + log + this run)
	recovered int              // entries recovered at Open (before any Record)
	appended  int              // records appended since the last snapshot
	dirty     bool             // un-synced bytes may sit in w or the page cache
	closed    bool
	scratch   []byte // Record's reused record buffer; w copies it
	// err is the first flush or fsync failure. It is sticky: after a
	// failed fsync the kernel may have dropped the dirty pages, and a
	// retried fsync can then succeed while the records are gone, so no
	// later Record, Sync or Close may report success.
	err error

	stop chan struct{}
	done chan struct{}
}

// Open opens (creating if necessary) the journal at path, recovering any
// state a previous run left behind: the snapshot first, then the log,
// tolerating a torn tail on both. The parent directory must exist.
func Open(path string, opt Options) (*Journal, error) {
	j := &Journal{
		path:  path,
		opt:   opt,
		known: make(map[int]struct{}),
		stop:  make(chan struct{}),
		done:  make(chan struct{}),
	}

	// Snapshot: written atomically, but recovery still takes the longest
	// valid prefix so a damaged file degrades to recomputation, never to
	// a failed restart. Only the indices are retained; payloads are
	// re-read from disk on demand (Completed).
	if data, err := os.ReadFile(j.snapPath()); err == nil {
		scan(data, j.restore)
	}

	// The log shares the segment layer's recovery: longest valid prefix,
	// torn tail truncated back to a record boundary.
	f, err := openRecovered(path, j.restore)
	if err != nil {
		return nil, err
	}
	j.f = f
	j.w = bufio.NewWriter(f)
	j.recovered = len(j.known)

	if iv := j.opt.syncInterval(); iv > 0 {
		go j.syncLoop(iv)
	} else {
		close(j.done)
	}
	return j, nil
}

func (j *Journal) snapPath() string { return j.path + ".snap" }

// restore notes one recovered record's index.
func (j *Journal) restore(idx int, payload []byte) {
	j.known[idx] = struct{}{}
}

// Completed returns the recovered and recorded entries sorted by index,
// re-read from disk (payloads are not cached in memory). The returned
// slice and payloads are the caller's to keep.
func (j *Journal) Completed() []Entry {
	j.mu.Lock()
	defer j.mu.Unlock()
	// Records appended this run must be visible to the read below; a
	// flush (no fsync) suffices, we read through the same page cache.
	if j.w != nil {
		_ = j.w.Flush()
	}
	seen := make(map[int]struct{}, len(j.known))
	out := make([]Entry, 0, len(j.known))
	collect := func(idx int, payload []byte) {
		if _, dup := seen[idx]; dup {
			return
		}
		seen[idx] = struct{}{}
		out = append(out, Entry{Idx: idx, Data: payload})
	}
	if data, err := os.ReadFile(j.snapPath()); err == nil {
		scan(data, collect)
	}
	if data, err := os.ReadFile(j.path); err == nil {
		scan(data, collect)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Idx < out[b].Idx })
	return out
}

// Recovered reports how many entries Open restored from disk, before any
// Record of the current run.
func (j *Journal) Recovered() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.recovered
}

// Len reports how many distinct indices the journal holds.
func (j *Journal) Len() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return len(j.known)
}

// Path returns the log path the journal was opened at.
func (j *Journal) Path() string { return j.path }

// Record appends one completion. Appends are buffered and fsynced in
// batches (Options.SyncInterval); call Sync for an immediate barrier.
// Re-recording an already-known index is a no-op, so replay and
// speculation dedup upstream cannot double an entry.
func (j *Journal) Record(idx int, payload []byte) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return ErrClosed
	}
	if j.err != nil {
		return j.err
	}
	if _, known := j.known[idx]; known {
		return nil
	}
	j.scratch = appendRecord(j.scratch[:0], idx, payload)
	if _, err := j.w.Write(j.scratch); err != nil {
		j.err = fmt.Errorf("journal: append: %w", err)
		return j.err
	}
	j.known[idx] = struct{}{}
	j.appended++
	j.dirty = true
	if j.opt.syncInterval() < 0 {
		if err := j.syncLocked(); err != nil {
			return err
		}
	}
	if every := j.opt.snapshotEvery(); every > 0 && j.appended >= every {
		return j.snapshotLocked()
	}
	return nil
}

// Sync flushes buffered records and fsyncs the log: a durability barrier.
// It returns the journal's first flush or fsync failure, even one the
// background loop met.
func (j *Journal) Sync() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return ErrClosed
	}
	return j.syncLocked()
}

func (j *Journal) syncLocked() error {
	if j.err != nil || !j.dirty {
		return j.err
	}
	if err := j.w.Flush(); err != nil {
		j.err = fmt.Errorf("journal: flush: %w", err)
		return j.err
	}
	if err := j.f.Sync(); err != nil {
		j.err = fmt.Errorf("journal: fsync: %w", err)
		return j.err
	}
	j.dirty = false
	return nil
}

// Snapshot compacts the journal: the old snapshot is stream-merged with
// the log's records into a temporary file, fsynced, atomically renamed
// over the snapshot (with the directory fsynced so the rename itself is
// durable), and only then is the log truncated. Recovery after a crash
// at any point sees either the old snapshot plus the old log or the new
// snapshot — never less. Transient memory is one inter-snapshot window
// of log records, not the full history.
func (j *Journal) Snapshot() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return ErrClosed
	}
	return j.snapshotLocked()
}

func (j *Journal) snapshotLocked() error {
	// The log must be durable before it is truncated: a failed or torn
	// compaction must leave the old snapshot+log pair complete.
	if err := j.syncLocked(); err != nil {
		return err
	}
	// The log holds at most one inter-snapshot window of records; sort
	// them in memory for the merge. (Indices are unique across snapshot
	// and log: Record refuses known ones.)
	logData, err := os.ReadFile(j.path)
	if err != nil {
		return fmt.Errorf("journal: read log for compaction: %w", err)
	}
	var fresh []Entry
	scan(logData, func(idx int, payload []byte) {
		fresh = append(fresh, Entry{Idx: idx, Data: payload})
	})
	logData = nil
	sort.Slice(fresh, func(a, b int) bool { return fresh[a].Idx < fresh[b].Idx })

	dir := filepath.Dir(j.path)
	tmp, err := os.CreateTemp(dir, filepath.Base(j.snapPath())+".tmp-*")
	if err != nil {
		return fmt.Errorf("journal: snapshot tmp: %w", err)
	}
	tmpName := tmp.Name()
	werr := j.mergeSnapshot(tmp, fresh)
	if werr == nil {
		werr = tmp.Sync()
	}
	if cerr := tmp.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		os.Remove(tmpName)
		return fmt.Errorf("journal: snapshot write: %w", werr)
	}
	if err := os.Rename(tmpName, j.snapPath()); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("journal: snapshot rename: %w", err)
	}
	// The rename is a directory-entry update; without fsyncing the
	// directory, power loss could surface the OLD snapshot next to the
	// about-to-be-truncated log, silently losing the compacted window.
	if err := syncDir(dir); err != nil {
		return fmt.Errorf("journal: snapshot dir sync: %w", err)
	}
	// Durable snapshot in place: the log's contents are now redundant.
	if err := j.f.Truncate(0); err != nil {
		return fmt.Errorf("journal: truncate log: %w", err)
	}
	if _, err := j.f.Seek(0, io.SeekStart); err != nil {
		return fmt.Errorf("journal: rewind log: %w", err)
	}
	j.w.Reset(j.f)
	j.appended = 0
	j.dirty = false
	return nil
}

// mergeSnapshot writes the old snapshot's records merged with the sorted
// fresh log records to w, both in ascending index order. The old
// snapshot is streamed record by record, never loaded whole.
func (j *Journal) mergeSnapshot(w io.Writer, fresh []Entry) error {
	bw := bufio.NewWriter(w)
	var frame []byte
	emit := func(e Entry) error {
		frame = appendRecord(frame[:0], e.Idx, e.Data)
		_, err := bw.Write(frame)
		return err
	}

	old, err := os.Open(j.snapPath())
	if err == nil {
		defer old.Close()
		br := bufio.NewReaderSize(old, 1<<16)
		var rec []byte
		for {
			e, ok := readRecord(br, &rec)
			if !ok {
				break // end, or damaged tail: longest valid prefix
			}
			for len(fresh) > 0 && fresh[0].Idx < e.Idx {
				if err := emit(fresh[0]); err != nil {
					return err
				}
				fresh = fresh[1:]
			}
			if len(fresh) > 0 && fresh[0].Idx == e.Idx {
				// Defensive: cannot happen while Record dedups, and the
				// snapshot's (older) record wins if it ever does.
				fresh = fresh[1:]
			}
			if err := emit(e); err != nil {
				return err
			}
		}
	}
	for _, e := range fresh {
		if err := emit(e); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// syncDir fsyncs a directory so a completed rename survives power loss.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// syncLoop fsyncs dirty batches on the configured interval. A failure
// has no caller to return to; it sticks, and the next Record, Sync or
// Close reports it.
func (j *Journal) syncLoop(iv time.Duration) {
	defer close(j.done)
	t := time.NewTicker(iv)
	defer t.Stop()
	for {
		select {
		case <-j.stop:
			return
		case <-t.C:
			j.mu.Lock()
			if j.closed {
				j.mu.Unlock()
				return
			}
			_ = j.syncLocked()
			j.mu.Unlock()
		}
	}
}

// Close flushes, fsyncs and closes the journal, returning the first
// flush or fsync failure if one ever occurred. Further operations return
// ErrClosed.
func (j *Journal) Close() error {
	j.mu.Lock()
	if j.closed {
		j.mu.Unlock()
		return nil
	}
	err := j.syncLocked()
	j.closed = true
	j.mu.Unlock()
	close(j.stop)
	<-j.done
	if cerr := j.f.Close(); err == nil {
		err = cerr
	}
	return err
}
