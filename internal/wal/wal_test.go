package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func mustOpen(t *testing.T, dir string, opts Options) *Log {
	t.Helper()
	l, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() { l.Close() })
	return l
}

func appendAll(t *testing.T, l *Log, recs ...string) {
	t.Helper()
	for _, r := range recs {
		if err := l.Append([]byte(r)); err != nil {
			t.Fatalf("Append(%q): %v", r, err)
		}
	}
}

func replayAll(t *testing.T, l *Log) []string {
	t.Helper()
	var got []string
	if err := l.Replay(func(rec []byte) error {
		got = append(got, string(rec)) // copy: the buffer is reused
		return nil
	}); err != nil {
		t.Fatalf("Replay: %v", err)
	}
	return got
}

func TestAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, dir, Options{})
	want := []string{"one", "two", "", "three with a longer payload"}
	appendAll(t, l, want...)
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	l2 := mustOpen(t, dir, Options{})
	if rec := l2.Recovery(); rec.Records != len(want) || rec.TruncatedBytes != 0 {
		t.Errorf("recovery = %+v, want %d records, 0 truncated", rec, len(want))
	}
	got := replayAll(t, l2)
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("record %d = %q, want %q", i, got[i], want[i])
		}
	}
}

func TestRotationSpansSegments(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, dir, Options{SegmentBytes: 64})
	var want []string
	for i := 0; i < 20; i++ {
		rec := fmt.Sprintf("record-%02d-padding-padding", i)
		want = append(want, rec)
		// Fits predicts exactly the appends that rotate first.
		fits, segs := l.Fits(len(rec)), l.Segments()
		appendAll(t, l, rec)
		if rotated := l.Segments() > segs; rotated == fits {
			t.Fatalf("record %d: Fits = %v, but the append rotated: %v", i, fits, rotated)
		}
	}
	if l.Segments() < 2 {
		t.Fatalf("expected rotation, have %d segment(s)", l.Segments())
	}
	l.Close()

	l2 := mustOpen(t, dir, Options{SegmentBytes: 64})
	got := replayAll(t, l2)
	if len(got) != len(want) {
		t.Fatalf("replayed %d records across segments, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("record %d = %q, want %q (ordering across segments)", i, got[i], want[i])
		}
	}
}

func TestRetentionDropsOldestSealed(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, dir, Options{SegmentBytes: 32, Retain: 2})
	for i := 0; i < 30; i++ {
		appendAll(t, l, fmt.Sprintf("record-%02d-xxxxxxxxxxxx", i))
	}
	if got := l.Segments(); got != 3 { // 2 sealed + active
		t.Errorf("segments = %d, want 3 (Retain=2 + active)", got)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 3 {
		t.Errorf("%d files on disk, want 3", len(ents))
	}
	// The survivors are the newest records.
	l.Close()
	l2 := mustOpen(t, dir, Options{})
	got := replayAll(t, l2)
	if len(got) == 0 || got[len(got)-1] != "record-29-xxxxxxxxxxxx" {
		t.Errorf("newest record missing after retention: %v", got)
	}
}

// corrupt helpers write raw bytes straight into segment files.
func segFile(dir string, seq int) string {
	return filepath.Join(dir, fmt.Sprintf("%08d%s", seq, segSuffix))
}

func appendRaw(t *testing.T, path string, b []byte) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(b); err != nil {
		t.Fatal(err)
	}
	f.Close()
}

func TestTornTailVariantsTruncated(t *testing.T) {
	frame := func(payload string) []byte {
		b := make([]byte, headerSize+len(payload))
		binary.LittleEndian.PutUint32(b[0:4], uint32(len(payload)))
		binary.LittleEndian.PutUint32(b[4:8], crc32.Checksum([]byte(payload), castagnoli))
		copy(b[headerSize:], payload)
		return b
	}
	cases := []struct {
		name string
		tail []byte
	}{
		{"partial header", []byte{0x03, 0x00}},
		{"partial payload", frame("abcdef")[:headerSize+3]},
		{"bad checksum", func() []byte {
			b := frame("abcdef")
			b[headerSize] ^= 0xFF
			return b
		}()},
		{"impossible length", func() []byte {
			b := frame("x")
			binary.LittleEndian.PutUint32(b[0:4], MaxRecordBytes+1)
			return b
		}()},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			l := mustOpen(t, dir, Options{})
			appendAll(t, l, "good-1", "good-2")
			l.Close()
			appendRaw(t, segFile(dir, 1), c.tail)

			l2, err := Open(dir, Options{})
			if err != nil {
				t.Fatalf("Open with torn tail must not fail: %v", err)
			}
			defer l2.Close()
			rec := l2.Recovery()
			if rec.Records != 2 {
				t.Errorf("recovered %d records, want 2", rec.Records)
			}
			if rec.TruncatedBytes != int64(len(c.tail)) {
				t.Errorf("truncated %d bytes, want %d", rec.TruncatedBytes, len(c.tail))
			}
			got := replayAll(t, l2)
			if len(got) != 2 || got[0] != "good-1" || got[1] != "good-2" {
				t.Errorf("replay after truncation = %v", got)
			}
			// Appending after the repair keeps the log healthy.
			appendAll(t, l2, "good-3")
			l2.Close()
			l3 := mustOpen(t, dir, Options{})
			if got := replayAll(t, l3); len(got) != 3 || got[2] != "good-3" {
				t.Errorf("post-repair append lost: %v", got)
			}
		})
	}
}

func TestCorruptSealedSegmentIsFatal(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, dir, Options{SegmentBytes: 32})
	for i := 0; i < 10; i++ {
		appendAll(t, l, fmt.Sprintf("record-%02d-xxxxxxxxxxxx", i))
	}
	if l.Segments() < 2 {
		t.Fatal("need at least one sealed segment")
	}
	l.Close()
	appendRaw(t, segFile(dir, 1), []byte{0xDE, 0xAD}) // damage a *sealed* segment

	if _, err := Open(dir, Options{}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Open on sealed-segment damage = %v, want ErrCorrupt", err)
	}
}

func TestResetDiscardsEverything(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, dir, Options{SegmentBytes: 32})
	for i := 0; i < 10; i++ {
		appendAll(t, l, fmt.Sprintf("record-%02d-xxxxxxxxxxxx", i))
	}
	if err := l.Reset(); err != nil {
		t.Fatalf("Reset: %v", err)
	}
	if got := l.Segments(); got != 1 {
		t.Errorf("segments after Reset = %d, want 1", got)
	}
	appendAll(t, l, "fresh")
	l.Close()
	l2 := mustOpen(t, dir, Options{})
	if got := replayAll(t, l2); len(got) != 1 || got[0] != "fresh" {
		t.Errorf("replay after Reset = %v, want [fresh]", got)
	}
}

func TestReplayAfterAppendRejected(t *testing.T) {
	l := mustOpen(t, t.TempDir(), Options{})
	appendAll(t, l, "x")
	if err := l.Replay(func([]byte) error { return nil }); err == nil {
		t.Error("Replay after Append should error")
	}
}

func TestReplayPropagatesCallbackError(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, dir, Options{})
	appendAll(t, l, "a", "b", "c")
	l.Close()
	l2 := mustOpen(t, dir, Options{})
	boom := errors.New("boom")
	n := 0
	err := l2.Replay(func([]byte) error {
		n++
		if n == 2 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Errorf("Replay error = %v, want boom", err)
	}
	if n != 2 {
		t.Errorf("callback ran %d times, want 2 (abort on error)", n)
	}
}

func TestOversizeRecordRejected(t *testing.T) {
	l := mustOpen(t, t.TempDir(), Options{})
	if err := l.Append(make([]byte, MaxRecordBytes+1)); !errors.Is(err, ErrTooLarge) {
		t.Errorf("oversize append = %v, want ErrTooLarge", err)
	}
}

// syncCounter counts the fsyncs issued on the segments a Log opens.
type syncCounter struct{ n int }

type countingFile struct {
	*os.File
	c *syncCounter
}

func (f countingFile) Sync() error {
	f.c.n++
	return f.File.Sync()
}

func (c *syncCounter) openFile(name string, flag int, perm os.FileMode) (File, error) {
	f, err := os.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return countingFile{f, c}, nil
}

func TestSyncPolicies(t *testing.T) {
	var every syncCounter
	l := mustOpen(t, t.TempDir(), Options{Policy: SyncEveryRecord, OpenFile: every.openFile})
	appendAll(t, l, "a", "b", "c")
	if every.n != 3 {
		t.Errorf("SyncEveryRecord synced %d times for 3 appends, want 3", every.n)
	}

	var onRotate syncCounter
	l2 := mustOpen(t, t.TempDir(), Options{Policy: SyncOnRotate, SegmentBytes: 20, OpenFile: onRotate.openFile})
	appendAll(t, l2, "a", "b")
	if onRotate.n != 0 {
		t.Errorf("SyncOnRotate synced %d times without a rotation", onRotate.n)
	}
	// 9-byte frames in 20-byte segments: the third does not fit, so its
	// append seals the first segment, which syncs it once.
	appendAll(t, l2, "c")
	if onRotate.n != 1 {
		t.Errorf("SyncOnRotate synced %d times across one rotation, want 1", onRotate.n)
	}

	// SyncInterval syncs once the interval has elapsed since the last
	// sync.
	var interval syncCounter
	l3 := mustOpen(t, t.TempDir(), Options{Policy: SyncInterval, Interval: time.Nanosecond, OpenFile: interval.openFile})
	time.Sleep(time.Millisecond)
	appendAll(t, l3, "a")
	if interval.n != 1 {
		t.Errorf("SyncInterval with an elapsed window synced %d times, want 1", interval.n)
	}
}

func TestOpenIgnoresForeignFiles(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "MANIFEST"), []byte("{}"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "notes.txt"), []byte("hi"), 0o644); err != nil {
		t.Fatal(err)
	}
	l := mustOpen(t, dir, Options{})
	appendAll(t, l, "x")
	l.Close()
	l2 := mustOpen(t, dir, Options{})
	if got := replayAll(t, l2); len(got) != 1 || got[0] != "x" {
		t.Errorf("replay with foreign files in dir = %v, want [x]", got)
	}
	for _, name := range []string{"MANIFEST", "notes.txt"} {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Errorf("foreign file %s disturbed: %v", name, err)
		}
	}
}

func TestAppendSteadyStateAllocationFree(t *testing.T) {
	l := mustOpen(t, t.TempDir(), Options{Policy: SyncOnRotate, SegmentBytes: 1 << 30})
	payload := bytes.Repeat([]byte("x"), 256)
	appendAll(t, l, string(payload)) // warm the scratch buffer
	if allocs := testing.AllocsPerRun(100, func() {
		if err := l.Append(payload); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("Append allocates %.1f times per record at steady state, want 0", allocs)
	}
}

func BenchmarkWALAppend(b *testing.B) {
	dir := b.TempDir()
	l, err := Open(dir, Options{Policy: SyncOnRotate, SegmentBytes: 1 << 30})
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	payload := bytes.Repeat([]byte("x"), 256)
	if err := l.Append(payload); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := l.Append(payload); err != nil {
			b.Fatal(err)
		}
	}
}
