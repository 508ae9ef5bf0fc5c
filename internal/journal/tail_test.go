package journal_test

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"gridsched/internal/journal"
)

func openTailWriter(t *testing.T) (*journal.Writer, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "wal.log")
	w, err := journal.OpenWriter(path, journal.SyncNever, 0, 0, 0, &journal.Metrics{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = w.Close() })
	return w, path
}

// TestTailReaderFollowsWriter covers the tail-follow contract: frames
// appear to the reader exactly once, in LSN order, and a drained tail
// reports ErrNoFrame rather than blocking or erroring.
func TestTailReaderFollowsWriter(t *testing.T) {
	w, path := openTailWriter(t)
	for i := 0; i < 5; i++ {
		if _, err := w.Append(fmt.Appendf(nil, "rec-%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	tr, err := journal.OpenTail(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	for i := 0; i < 5; i++ {
		lsn, payload, err := tr.Next()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if lsn != uint64(i+1) || string(payload) != fmt.Sprintf("rec-%d", i) {
			t.Fatalf("frame %d: lsn %d payload %q", i, lsn, payload)
		}
	}
	if _, _, err := tr.Next(); !errors.Is(err, journal.ErrNoFrame) {
		t.Fatalf("drained tail: %v (want ErrNoFrame)", err)
	}
	// New appends become visible to the same reader.
	if _, err := w.Append([]byte("late")); err != nil {
		t.Fatal(err)
	}
	lsn, payload, err := tr.Next()
	if err != nil || lsn != 6 || string(payload) != "late" {
		t.Fatalf("after late append: lsn %d payload %q err %v", lsn, payload, err)
	}
}

// TestTailReaderResumesAfter pins the `after` contract: frames at or
// below the resume point are skipped, not redelivered.
func TestTailReaderResumesAfter(t *testing.T) {
	w, path := openTailWriter(t)
	for i := 0; i < 4; i++ {
		if _, err := w.Append([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	tr, err := journal.OpenTail(path, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	lsn, _, err := tr.Next()
	if err != nil || lsn != 3 {
		t.Fatalf("resume after 2: first frame lsn %d err %v", lsn, err)
	}
}

// TestTailReaderDetectsRotation: a log that shrinks below the reader (a
// writer reopened over a torn tail truncates it) must surface as
// ErrRotated, never as silently re-reading old offsets.
func TestTailReaderDetectsRotation(t *testing.T) {
	w, path := openTailWriter(t)
	for i := 0; i < 3; i++ {
		if _, err := w.Append([]byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	tr, err := journal.OpenTail(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	for i := 0; i < 3; i++ {
		if _, _, err := tr.Next(); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.Truncate(path, 8); err != nil { // back to the bare magic
		t.Fatal(err)
	}
	if _, _, err := tr.Next(); !errors.Is(err, journal.ErrRotated) {
		t.Fatalf("after truncation: %v (want ErrRotated)", err)
	}
}

// TestTailReaderAcrossCompaction: compaction replaces the file, so a
// reader on the old one drains the frames it holds and then sees no
// more. Rotations() tells it so, and a reader reopened at its position
// resumes with the next frame and no gap.
func TestTailReaderAcrossCompaction(t *testing.T) {
	w, path := openTailWriter(t)
	for i := 1; i <= 4; i++ {
		if _, err := w.Append([]byte(fmt.Sprint(i))); err != nil {
			t.Fatal(err)
		}
	}
	epoch := w.Rotations()
	tr, err := journal.OpenTail(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	for want := uint64(1); want <= 3; want++ {
		if lsn, _, err := tr.Next(); err != nil || lsn != want {
			t.Fatalf("before compaction: lsn %d err %v, want %d", lsn, err, want)
		}
	}
	m := w.Mark()
	if _, err := w.Append([]byte("5")); err != nil {
		t.Fatal(err)
	}
	if err := w.CompactThrough(m); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Append([]byte("6")); err != nil { // into the new file only
		t.Fatal(err)
	}
	if w.Rotations() == epoch {
		t.Fatal("compaction did not move Rotations()")
	}
	// The old file still holds everything up to the compaction.
	for want := uint64(4); want <= 5; want++ {
		if lsn, _, err := tr.Next(); err != nil || lsn != want {
			t.Fatalf("old file: lsn %d err %v, want %d", lsn, err, want)
		}
	}
	if _, _, err := tr.Next(); !errors.Is(err, journal.ErrNoFrame) {
		t.Fatalf("old file past the compaction: %v (want ErrNoFrame)", err)
	}
	re, err := journal.OpenTail(path, 5)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if lsn, payload, err := re.Next(); err != nil || lsn != 6 || string(payload) != "6" {
		t.Fatalf("reopened reader: lsn %d %q err %v, want 6", lsn, payload, err)
	}
}

// TestTailReaderIgnoresTornTail: a torn (partial or corrupt) frame at the
// end of the log is indistinguishable from a frame still being written,
// so the reader reports ErrNoFrame and re-reads the same offset later.
func TestTailReaderIgnoresTornTail(t *testing.T) {
	w, path := openTailWriter(t)
	if _, err := w.Append([]byte("good")); err != nil {
		t.Fatal(err)
	}
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	// Simulate a torn append: header bytes only, then garbage CRC.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{9, 0, 0, 0, 0xde, 0xad, 0xbe, 0xef}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	tr, err := journal.OpenTail(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	if lsn, _, err := tr.Next(); err != nil || lsn != 1 {
		t.Fatalf("good frame: lsn %d err %v", lsn, err)
	}
	for i := 0; i < 2; i++ {
		if _, _, err := tr.Next(); !errors.Is(err, journal.ErrNoFrame) {
			t.Fatalf("torn tail read %d: %v (want ErrNoFrame)", i, err)
		}
	}
}

// TestAppendNotifyWakesWaiters: AppendNotify's channel closes on append,
// compaction, and shutdown — everything a parked tail follower must wake
// for.
func TestAppendNotifyWakesWaiters(t *testing.T) {
	w, _ := openTailWriter(t)
	wait := func(ch <-chan struct{}, what string) {
		t.Helper()
		select {
		case <-ch:
		case <-time.After(5 * time.Second):
			t.Fatalf("notify channel never closed after %s", what)
		}
	}
	ch := w.AppendNotify()
	if _, err := w.Append([]byte("x")); err != nil {
		t.Fatal(err)
	}
	wait(ch, "append")
	ch = w.AppendNotify()
	if err := w.CompactThrough(w.Mark()); err != nil {
		t.Fatal(err)
	}
	wait(ch, "compaction")
	ch = w.AppendNotify()
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	wait(ch, "close")
}
