// Package tsdb is an embedded, per-daemon time-series store for telemetry
// snapshots: an in-memory mirror the query side (range, rate, delta,
// quantile-over-time) serves from, bounded to one window by age, and —
// when opened on a directory — an append-only log of delta-encoded metric
// samples with WAL-style segment rotation, retention, and crash recovery.
//
// The daemon appends one Point — every counter, gauge, and histogram in
// the registry, labeled series included — every -ts-interval. That turns
// the point-in-time /metrics scrape into history: SLO burn rates score
// their windows from the store, `jarvisctl top` sparklines p99s from it,
// and with a directory a restart loses at most the tail the crash tore.
// Opened without a directory the store keeps the mirror only; the query
// code is the same in both modes.
//
// # On-disk format
//
// Records use the WAL's framing: [length u32 LE | crc32c(payload) u32 LE
// | payload], Castagnoli CRC, appended to numbered segments
// (00000001.tsw, ...). The payload is one sample:
//
//	kind   u8      1 = full, 2 = delta
//	ts     uvarint unix nanoseconds
//	count  uvarint series entries that follow
//	entry: id uvarint; a first-seen id is followed by its declaration
//	       (type u8, name len uvarint, name bytes); then the value,
//	       encoded as a zigzag-varint delta against the decoder's last
//	       value for that id (counters, histogram scalars and bucket
//	       counts) or as 8 raw float64 bits (gauges).
//
// A full record resets the decoder — dictionary and last-values — and
// then lists every live series, so its deltas are absolute values. Every
// segment opens with a full record, which makes each segment
// independently decodable: retention can delete old segments without
// orphaning the deltas in newer ones, and recovery after a crash
// re-seeds from whatever segments survive. A delta record lists only the
// series that changed since the previous record, so a quiet interval
// costs a few dozen bytes, not a full snapshot.
//
// # Recovery
//
// Open scans segments oldest-first, rebuilding the in-memory point
// mirror. Damage at the tail of the last segment (short header, short
// payload, bad CRC) is a torn write from a crash: the segment is
// truncated back to its last whole record and appending resumes. The
// same damage in a sealed segment is ErrCorrupt. The first append after
// Open always writes a full record, so a reopened log never extends a
// baseline it did not verify.
package tsdb

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
	"syscall"
	"time"

	"jarvis/internal/telemetry"
)

const (
	headerSize = 8
	segSuffix  = ".tsw"

	// MaxRecordBytes bounds one sample's payload; recovery treats a larger
	// length prefix as tail damage rather than allocating it.
	MaxRecordBytes = 16 << 20
)

// ErrCorrupt reports structural damage in a sealed segment — damage a
// torn tail write cannot explain.
var ErrCorrupt = errors.New("tsdb: corrupt record in sealed region")

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Point is one decoded sample: every series' value at one instant.
type Point struct {
	TsNs       int64
	Counters   map[string]int64
	Gauges     map[string]float64
	Histograms map[string]telemetry.HistogramStats
}

// FromSnapshot projects a registry snapshot onto a Point (events and
// infos are not time series and are dropped).
func FromSnapshot(s telemetry.Snapshot) Point {
	return Point{
		TsNs:       s.UnixNs,
		Counters:   s.Counters,
		Gauges:     s.Gauges,
		Histograms: s.Histograms,
	}
}

// Options tunes a DB. The zero value is usable: 1 MiB segments, retain 8
// sealed segments, mirror a 10-minute window in memory.
type Options struct {
	// SegmentBytes rotates the active segment once it exceeds this size
	// (default 1 MiB).
	SegmentBytes int64
	// Retain caps sealed segments kept after rotation (default 8; <0
	// keeps everything).
	Retain int
	// Window bounds the in-memory mirror the query side reads by age: it
	// keeps the newest point at or before newest−Window plus every point
	// after it, so a query over the newest Window always finds its far
	// edge (default 10m). Disk retention is an independent bound.
	Window time.Duration
}

func (o Options) withDefaults() Options {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 1 << 20
	}
	if o.Retain == 0 {
		o.Retain = 8
	}
	if o.Window <= 0 {
		o.Window = 10 * time.Minute
	}
	return o
}

// RecoveryStats reports what Open found on disk.
type RecoveryStats struct {
	Segments       int
	Points         int
	TruncatedBytes int64
}

// Stats is the live footprint /healthz reports.
type Stats struct {
	Segments    int   `json:"segments"`
	SizeBytes   int64 `json:"sizeBytes"`
	Points      int   `json:"points"`
	SeriesCount int   `json:"seriesCount"`
	OldestNs    int64 `json:"oldestNs,omitempty"`
	NewestNs    int64 `json:"newestNs,omitempty"`
}

// DB is one daemon's metric history. All methods are safe for concurrent
// use.
type DB struct {
	dir  string
	opts Options

	mu sync.Mutex
	// f is the active segment; nil for a memory-only store.
	f           *os.File
	seq         uint64
	size        int64
	sealed      []uint64
	sealedBytes int64
	closed      bool
	rec         RecoveryStats

	// points is the in-memory mirror, ascending by TsNs.
	points []Point

	// enc is the delta baseline for the active segment; nil forces the
	// next append to write a full record.
	enc     *encoder
	scratch []byte
}

// Open creates dir if needed, recovers any existing history into the
// in-memory mirror, and returns a DB ready to append. An empty dir opens
// a memory-only store: no segments, nothing written, nothing to recover.
func Open(dir string, opts Options) (*DB, error) {
	db := &DB{dir: dir, opts: opts.withDefaults()}
	if dir == "" {
		return db, nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("tsdb: %w", err)
	}
	segs, err := listSegments(dir)
	if err != nil {
		return nil, err
	}
	for i, seq := range segs {
		last := i == len(segs)-1
		good, total, err := db.scanSegment(seq)
		if err != nil {
			return nil, err
		}
		if !last {
			db.sealedBytes += total
		}
		if good < total {
			if !last {
				return nil, fmt.Errorf("%w: segment %08d has %d damaged trailing bytes", ErrCorrupt, seq, total-good)
			}
			if err := os.Truncate(db.segPath(seq), good); err != nil {
				return nil, fmt.Errorf("tsdb: truncate torn tail: %w", err)
			}
			db.rec.TruncatedBytes = total - good
		}
	}
	db.rec.Segments = len(segs)
	db.rec.Points = len(db.points)
	switch len(segs) {
	case 0:
		if err := db.openSegment(1); err != nil {
			return nil, err
		}
		db.rec.Segments = 1
	default:
		db.sealed = segs[:len(segs)-1]
		seq := segs[len(segs)-1]
		f, err := os.OpenFile(db.segPath(seq), os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, fmt.Errorf("tsdb: reopen segment: %w", err)
		}
		st, err := f.Stat()
		if err != nil {
			f.Close()
			return nil, fmt.Errorf("tsdb: %w", err)
		}
		db.f, db.seq, db.size = f, seq, st.Size()
	}
	// enc stays nil: the first post-recovery append is a full record, so
	// we never extend a baseline we did not verify.
	return db, nil
}

// Recovery reports what Open found (and repaired) on disk.
func (db *DB) Recovery() RecoveryStats {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.rec
}

// Append stores one snapshot. Points must arrive in non-decreasing
// timestamp order; an out-of-order point is dropped (clock steps during
// failover are not worth corrupting the history for).
func (db *DB) Append(p Point) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return errors.New("tsdb: closed")
	}
	if n := len(db.points); n > 0 && p.TsNs < db.points[n-1].TsNs {
		return nil
	}
	if db.f == nil { // memory-only: the mirror is the store
		db.appendPointLocked(p)
		return nil
	}
	full := db.enc == nil
	if full {
		db.enc = newEncoder()
	}
	payload := encodePoint(db.scratch[:0], p, db.enc, full)
	if len(payload) > MaxRecordBytes {
		return fmt.Errorf("tsdb: sample of %d bytes exceeds MaxRecordBytes", len(payload))
	}
	if db.size > 0 && db.size+int64(headerSize+len(payload)) > db.opts.SegmentBytes {
		if err := db.rotateLocked(); err != nil {
			return err
		}
		// A new segment must open with a full record (fresh dictionary).
		db.enc = newEncoder()
		payload = encodePoint(payload[:0], p, db.enc, true)
	}
	db.scratch = payload[:0]
	var hdr [headerSize]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.Checksum(payload, castagnoli))
	if _, err := db.f.Write(hdr[:]); err != nil {
		return fmt.Errorf("tsdb: append: %w", err)
	}
	if _, err := db.f.Write(payload); err != nil {
		return fmt.Errorf("tsdb: append: %w", err)
	}
	db.size += int64(headerSize + len(payload))
	db.enc.observe(p)
	db.appendPointLocked(p)
	return nil
}

// Sync flushes the active segment to stable storage. The append path does
// not fsync per sample — metric history is derived data; losing the last
// interval to power loss is acceptable — so callers with stricter needs
// (tests, clean shutdown) sync explicitly.
func (db *DB) Sync() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed || db.f == nil {
		return nil
	}
	return db.f.Sync()
}

// Close syncs and closes the active segment (a no-op for a memory-only
// store).
func (db *DB) Close() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed || db.f == nil {
		return nil
	}
	db.closed = true
	if err := db.f.Sync(); err != nil {
		db.f.Close()
		return fmt.Errorf("tsdb: close: %w", err)
	}
	return db.f.Close()
}

// Stats reports the store's live footprint.
func (db *DB) Stats() Stats {
	db.mu.Lock()
	defer db.mu.Unlock()
	s := Stats{
		SizeBytes: db.sealedBytes + db.size,
		Points:    len(db.points),
	}
	if db.f != nil {
		s.Segments = len(db.sealed) + 1
	}
	if n := len(db.points); n > 0 {
		s.OldestNs = db.points[0].TsNs
		s.NewestNs = db.points[n-1].TsNs
		last := db.points[n-1]
		s.SeriesCount = len(last.Counters) + len(last.Gauges) + len(last.Histograms)
	}
	return s
}

// appendPointLocked mirrors p and evicts every point older than the
// window's far edge: the newest point at or before p.TsNs−Window stays.
func (db *DB) appendPointLocked(p Point) {
	db.points = append(db.points, p)
	cutoff := p.TsNs - db.opts.Window.Nanoseconds()
	i := 0
	for i+1 < len(db.points) && db.points[i+1].TsNs <= cutoff {
		i++
	}
	clear(db.points[:i]) // drop the evicted points' maps for the GC
	db.points = db.points[i:]
}

func (db *DB) rotateLocked() error {
	if err := db.f.Sync(); err != nil {
		return fmt.Errorf("tsdb: sync: %w", err)
	}
	if err := db.f.Close(); err != nil {
		return fmt.Errorf("tsdb: seal segment: %w", err)
	}
	db.sealed = append(db.sealed, db.seq)
	db.sealedBytes += db.size
	if err := db.openSegment(db.seq + 1); err != nil {
		return err
	}
	db.enc = nil // next record is full
	if db.opts.Retain > 0 {
		for len(db.sealed) > db.opts.Retain {
			seq := db.sealed[0]
			if st, err := os.Stat(db.segPath(seq)); err == nil {
				db.sealedBytes -= st.Size()
			}
			if err := os.Remove(db.segPath(seq)); err != nil {
				return fmt.Errorf("tsdb: retention: %w", err)
			}
			db.sealed = db.sealed[1:]
		}
		if err := syncDir(db.dir); err != nil {
			return err
		}
	}
	return nil
}

func (db *DB) openSegment(seq uint64) error {
	f, err := os.OpenFile(db.segPath(seq), os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("tsdb: create segment: %w", err)
	}
	if err := syncDir(db.dir); err != nil {
		f.Close()
		return err
	}
	db.f, db.seq, db.size = f, seq, 0
	return nil
}

// scanSegment decodes one segment into the mirror, returning the offset
// of the last whole record and the file size.
func (db *DB) scanSegment(seq uint64) (good, total int64, err error) {
	data, err := os.ReadFile(db.segPath(seq))
	if err != nil {
		return 0, 0, fmt.Errorf("tsdb: %w", err)
	}
	total = int64(len(data))
	dec := newDecoder()
	off := int64(0)
	for {
		rest := data[off:]
		if len(rest) == 0 {
			return off, total, nil
		}
		if len(rest) < headerSize {
			return off, total, nil // torn header
		}
		n := int64(binary.LittleEndian.Uint32(rest[0:4]))
		sum := binary.LittleEndian.Uint32(rest[4:8])
		if n > MaxRecordBytes || int64(len(rest)) < headerSize+n {
			return off, total, nil // impossible length or torn payload
		}
		payload := rest[headerSize : headerSize+n]
		if crc32.Checksum(payload, castagnoli) != sum {
			return off, total, nil // torn/corrupt record
		}
		p, derr := dec.decode(payload)
		if derr != nil {
			// Framing was intact but the payload grammar is not: treat like
			// CRC damage at this offset.
			return off, total, nil
		}
		db.appendPointLocked(p)
		db.rec.Points++
		off += headerSize + n
	}
}

func (db *DB) segPath(seq uint64) string {
	return filepath.Join(db.dir, fmt.Sprintf("%08d%s", seq, segSuffix))
}

func listSegments(dir string) ([]uint64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("tsdb: %w", err)
	}
	var segs []uint64
	for _, ent := range ents {
		name := ent.Name()
		if ent.IsDir() || !strings.HasSuffix(name, segSuffix) {
			continue
		}
		seq, err := strconv.ParseUint(strings.TrimSuffix(name, segSuffix), 10, 64)
		if err != nil {
			continue
		}
		segs = append(segs, seq)
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i] < segs[j] })
	return segs, nil
}

func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("tsdb: open dir: %w", err)
	}
	defer d.Close()
	// Filesystems that cannot sync a directory handle are best-effort.
	if err := d.Sync(); err != nil && !errors.Is(err, syscall.EINVAL) && !errors.Is(err, syscall.ENOTSUP) {
		return fmt.Errorf("tsdb: sync dir: %w", err)
	}
	return nil
}
