// Package wal is a segmented write-ahead log for the Jarvis daemon: an
// append-only journal the serving path writes every ingested event and
// accepted replay transition into *before* applying it, so a kill -9 loses
// nothing that was acknowledged. On restart the daemon replays the log on
// top of its last checkpoint and arrives at the exact pre-crash state —
// the durability contract real-time defense deployments (IoTWarden,
// RESTRAIN) assume of a hub that must stay consistent across failures.
//
// # Record framing
//
// Every record is length-prefixed and checksummed:
//
//	[ length uint32 LE | crc32c(payload) uint32 LE | payload ... ]
//
// The CRC is Castagnoli (CRC32C), hardware-accelerated on amd64/arm64. A
// record is only ever surfaced by Replay if its full payload is present
// and the checksum matches; anything else is a torn tail (see Recovery).
//
// # Segments
//
// Records append to numbered segment files (00000001.wal, 00000002.wal,
// ...). When the active segment exceeds Options.SegmentBytes it is synced,
// sealed, and a new segment opens. Options.Retain caps how many sealed
// segments survive rotation — 0 keeps everything until Reset, which is the
// right setting when the log is truncated at checkpoint barriers.
//
// # Durability
//
// Options.Policy picks the fsync cadence: SyncEveryRecord (each Append is
// durable before it returns — the default, and what an acknowledging
// server should use), SyncInterval (group commit: at most Interval of
// acknowledged-but-unsynced data is exposed to power loss), or
// SyncOnRotate (durability only at segment seams; cheapest, for derived
// data). Segment creation and deletion fsync the directory, so the file
// *names* survive power loss too.
//
// # Recovery
//
// Open scans existing segments oldest-first. A short header, short
// payload, impossible length, or checksum mismatch in the *last* segment
// is a torn tail from the crash: the segment is truncated back to its last
// complete record and appending resumes there — never fatal. The same
// damage in an earlier (sealed) segment cannot be explained by a torn
// write and is reported as ErrCorrupt so the operator can decide. Replay
// then streams every surviving record, in order, to the caller.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// SyncPolicy selects when Append data reaches stable storage.
type SyncPolicy int

const (
	// SyncEveryRecord fsyncs after every Append: an acknowledged record is
	// a durable record. The default.
	SyncEveryRecord SyncPolicy = iota
	// SyncInterval fsyncs when at least Options.Interval has elapsed since
	// the last sync (group commit, amortized over bursts).
	SyncInterval
	// SyncOnRotate fsyncs only when a segment seals (and on Sync/Close).
	SyncOnRotate
)

const (
	headerSize = 8
	// MaxRecordBytes bounds one record's payload. Recovery treats any
	// larger length prefix as tail damage rather than trying to allocate
	// it, so a flipped bit in the length field cannot wedge a restart.
	MaxRecordBytes = 16 << 20

	segSuffix = ".wal"
)

// ErrCorrupt reports structural damage that recovery cannot attribute to a
// torn tail write — a bad record in the middle of the log. Torn tails are
// repaired silently; ErrCorrupt means data in a sealed region is gone.
var ErrCorrupt = errors.New("wal: corrupt record in sealed region")

// ErrTooLarge reports an Append payload over MaxRecordBytes.
var ErrTooLarge = errors.New("wal: record exceeds MaxRecordBytes")

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// File is the writable-segment surface a Log needs from the filesystem.
// *os.File satisfies it; tests substitute fault-injecting wrappers through
// Options.OpenFile to exercise torn and failed writes.
type File interface {
	Write(p []byte) (int, error)
	Sync() error
	Close() error
	Stat() (os.FileInfo, error)
}

// Options tunes a Log. The zero value is usable: 4 MiB segments, keep all
// sealed segments, fsync every record.
type Options struct {
	// SegmentBytes rotates the active segment once it exceeds this size
	// (default 4 MiB). A single record larger than the limit still fits —
	// rotation happens between records, never inside one.
	SegmentBytes int64
	// Retain caps sealed segments kept after a rotation; the oldest are
	// deleted first. 0 keeps everything (Reset is then the only trim).
	Retain int
	// Policy is the fsync cadence (default SyncEveryRecord).
	Policy SyncPolicy
	// Interval is the SyncInterval group-commit window (default 100ms).
	Interval time.Duration
	// OpenFile overrides how segment files open for writing (fault
	// injection). Nil uses os.OpenFile.
	OpenFile func(name string, flag int, perm os.FileMode) (File, error)
}

func (o Options) withDefaults() Options {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 4 << 20
	}
	if o.Interval <= 0 {
		o.Interval = 100 * time.Millisecond
	}
	return o
}

// RecoveryStats reports what Open found on disk.
type RecoveryStats struct {
	// Segments is the number of segment files present after recovery.
	Segments int
	// Records is the number of complete records across all segments.
	Records int
	// TruncatedBytes is how much torn tail was cut from the last segment.
	TruncatedBytes int64
}

// Log is a segmented write-ahead log rooted at one directory. All methods
// are safe for concurrent use; Append is allocation-free at steady state.
type Log struct {
	dir  string
	opts Options

	mu          sync.Mutex
	f           File     // active segment
	seq         uint64   // active segment number
	size        int64    // bytes in the active segment
	sealed      []uint64 // sealed segment numbers, ascending
	sealedBytes int64    // bytes across the sealed segments still on disk
	lastSync    time.Time
	appended    bool // records appended since Open (Replay is pre-append only)
	closed      bool
	rec         RecoveryStats

	// scratch assembles header+payload into one contiguous write so a
	// record hits the file in a single syscall; grown on demand, reused.
	scratch []byte
}

// Open creates dir if needed, recovers the existing log (truncating a torn
// tail in the last segment), and returns a Log ready for Replay and
// Append.
func Open(dir string, opts Options) (*Log, error) {
	opts = opts.withDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	l := &Log{dir: dir, opts: opts}
	segs, err := listSegments(dir)
	if err != nil {
		return nil, err
	}
	for i, seq := range segs {
		last := i == len(segs)-1
		n, good, total, err := scanSegment(l.segPath(seq), nil)
		if err != nil {
			return nil, err
		}
		l.rec.Records += n
		if !last {
			l.sealedBytes += total
		}
		if good < total {
			if !last {
				return nil, fmt.Errorf("%w: segment %08d has %d damaged trailing bytes", ErrCorrupt, seq, total-good)
			}
			if err := os.Truncate(l.segPath(seq), good); err != nil {
				return nil, fmt.Errorf("wal: truncate torn tail: %w", err)
			}
			l.rec.TruncatedBytes = total - good
		}
	}
	l.rec.Segments = len(segs)
	switch len(segs) {
	case 0:
		if err := l.openSegment(1); err != nil {
			return nil, err
		}
		l.rec.Segments = 1
	default:
		l.sealed = segs[:len(segs)-1]
		seq := segs[len(segs)-1]
		f, err := l.openFile(l.segPath(seq), os.O_WRONLY|os.O_APPEND)
		if err != nil {
			return nil, fmt.Errorf("wal: reopen segment: %w", err)
		}
		st, err := f.Stat()
		if err != nil {
			f.Close()
			return nil, fmt.Errorf("wal: %w", err)
		}
		l.f, l.seq, l.size = f, seq, st.Size()
	}
	l.lastSync = time.Now()
	return l, nil
}

// Recovery reports what Open found (and repaired) on disk.
func (l *Log) Recovery() RecoveryStats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.rec
}

// Segments returns the number of segment files (sealed + active).
func (l *Log) Segments() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.sealed) + 1
}

// Dir returns the log's directory.
func (l *Log) Dir() string { return l.dir }

// SizeBytes returns the bytes currently on disk across all segments. With
// Retain 0 (keep everything) this is exactly the bytes journalled since
// the last checkpoint barrier (Reset).
func (l *Log) SizeBytes() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.sealedBytes + l.size
}

// Replay streams every complete record, oldest first, to fn. It must run
// before the first Append of this process (recovery-time replay); fn
// receives a buffer reused between calls and must not retain it. A non-nil
// fn error aborts the replay and is returned.
func (l *Log) Replay(fn func(rec []byte) error) error {
	l.mu.Lock()
	if l.appended {
		l.mu.Unlock()
		return errors.New("wal: Replay must run before the first Append")
	}
	segs := append(append([]uint64(nil), l.sealed...), l.seq)
	l.mu.Unlock()
	for _, seq := range segs {
		if _, _, _, err := scanSegment(l.segPath(seq), fn); err != nil {
			return err
		}
	}
	return nil
}

// Append journals one record. The payload is copied before return; with
// SyncEveryRecord it is durable before return.
func (l *Log) Append(payload []byte) error {
	if len(payload) > MaxRecordBytes {
		return ErrTooLarge
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return errors.New("wal: closed")
	}
	if !l.fitsLocked(len(payload)) {
		if err := l.rotateLocked(); err != nil {
			return err
		}
	}
	need := headerSize + len(payload)
	if cap(l.scratch) < need {
		l.scratch = make([]byte, need)
	}
	buf := l.scratch[:need]
	binary.LittleEndian.PutUint32(buf[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[4:8], crc32.Checksum(payload, castagnoli))
	copy(buf[headerSize:], payload)
	if _, err := l.f.Write(buf); err != nil {
		return fmt.Errorf("wal: append: %w", err)
	}
	l.size += int64(need)
	l.appended = true
	switch l.opts.Policy {
	case SyncEveryRecord:
		return l.syncLocked()
	case SyncInterval:
		if time.Since(l.lastSync) >= l.opts.Interval {
			return l.syncLocked()
		}
	}
	return nil
}

// Sync forces everything appended so far to stable storage.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	return l.syncLocked()
}

func (l *Log) syncLocked() error {
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("wal: sync: %w", err)
	}
	l.lastSync = time.Now()
	return nil
}

// Fits reports whether an n-byte payload appends to the active segment
// without rotating it first. A writer whose segments must each open with
// a particular record checks it and calls Rotate itself.
func (l *Log) Fits(n int) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.fitsLocked(n)
}

// fitsLocked is Fits with l.mu held: rotation happens between records,
// never inside one, so an empty segment takes any record.
func (l *Log) fitsLocked(n int) bool {
	return l.size == 0 || l.size+int64(headerSize+n) <= l.opts.SegmentBytes
}

// Rotate seals the active segment and opens the next, applying retention.
func (l *Log) Rotate() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return errors.New("wal: closed")
	}
	return l.rotateLocked()
}

func (l *Log) rotateLocked() error {
	if err := l.syncLocked(); err != nil {
		return err
	}
	if err := l.f.Close(); err != nil {
		return fmt.Errorf("wal: seal segment: %w", err)
	}
	l.sealed = append(l.sealed, l.seq)
	l.sealedBytes += l.size
	if err := l.openSegment(l.seq + 1); err != nil {
		return err
	}
	// Retention: drop the oldest sealed segments beyond the cap.
	if l.opts.Retain > 0 {
		for len(l.sealed) > l.opts.Retain {
			seq := l.sealed[0]
			if st, err := os.Stat(l.segPath(seq)); err == nil {
				l.sealedBytes -= st.Size()
			}
			if err := os.Remove(l.segPath(seq)); err != nil {
				return fmt.Errorf("wal: retention: %w", err)
			}
			l.sealed = l.sealed[1:]
		}
		if err := syncDir(l.dir); err != nil {
			return err
		}
	}
	return nil
}

// Reset discards every record and starts an empty log — the checkpoint
// barrier: once a checkpoint durably captures the state the log rebuilt,
// the log itself is no longer needed.
func (l *Log) Reset() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return errors.New("wal: closed")
	}
	if err := l.f.Close(); err != nil {
		return fmt.Errorf("wal: reset: %w", err)
	}
	for _, seq := range append(append([]uint64(nil), l.sealed...), l.seq) {
		if err := os.Remove(l.segPath(seq)); err != nil && !os.IsNotExist(err) {
			return fmt.Errorf("wal: reset: %w", err)
		}
	}
	next := l.seq + 1
	l.sealed = l.sealed[:0]
	l.sealedBytes = 0
	if err := l.openSegment(next); err != nil {
		return err
	}
	return nil
}

// Close syncs and closes the active segment.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	if err := l.f.Sync(); err != nil {
		l.f.Close()
		return fmt.Errorf("wal: close: %w", err)
	}
	return l.f.Close()
}

func (l *Log) segPath(seq uint64) string {
	return segmentPath(l.dir, seq)
}

// segmentPath names segment seq inside dir.
func segmentPath(dir string, seq uint64) string {
	return filepath.Join(dir, fmt.Sprintf("%08d%s", seq, segSuffix))
}

// openFile opens a segment file for writing through the configured hook.
func (l *Log) openFile(name string, flag int) (File, error) {
	if l.opts.OpenFile != nil {
		return l.opts.OpenFile(name, flag, 0o644)
	}
	return os.OpenFile(name, flag, 0o644)
}

// openSegment creates segment seq and makes it active, fsyncing the
// directory so the new name survives power loss.
func (l *Log) openSegment(seq uint64) error {
	f, err := l.openFile(l.segPath(seq), os.O_WRONLY|os.O_CREATE|os.O_EXCL)
	if err != nil {
		return fmt.Errorf("wal: create segment: %w", err)
	}
	if err := syncDir(l.dir); err != nil {
		f.Close()
		return err
	}
	l.f, l.seq, l.size = f, seq, 0
	return nil
}

// listSegments returns the segment numbers in dir, ascending.
func listSegments(dir string) ([]uint64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	var segs []uint64
	for _, ent := range ents {
		name := ent.Name()
		if ent.IsDir() || !strings.HasSuffix(name, segSuffix) {
			continue
		}
		seq, err := strconv.ParseUint(strings.TrimSuffix(name, segSuffix), 10, 64)
		if err != nil {
			continue // foreign file; leave it alone
		}
		segs = append(segs, seq)
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i] < segs[j] })
	return segs, nil
}

// syncDir fsyncs a directory so recent create/remove operations on its
// entries are durable. Filesystems that cannot sync a directory handle
// (returning EINVAL/ENOTSUP) are treated as best-effort.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("wal: open dir: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil && !isSyncUnsupported(err) {
		return fmt.Errorf("wal: sync dir: %w", err)
	}
	return nil
}
