package storage

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// failOnWrite is a minimal injector failing the Nth write.
type failOnWrite struct{ n, seen int }

func (f *failOnWrite) BeforeOp(op string, page uint32) error {
	if op != "write" {
		return nil
	}
	f.seen++
	if f.seen == f.n {
		return errors.New("injected write failure")
	}
	return nil
}
func (f *failOnWrite) CorruptRead(uint32, []byte) bool   { return false }
func (f *failOnWrite) WriteLimit(_ uint32, size int) int { return size }

// tearNext tears every write to a fixed prefix.
type tearNext struct{ limit int }

func (t *tearNext) BeforeOp(string, uint32) error   { return nil }
func (t *tearNext) CorruptRead(uint32, []byte) bool { return false }
func (t *tearNext) WriteLimit(_ uint32, size int) int {
	if t.limit < size {
		return t.limit
	}
	return size
}

// failSync fails every fsync.
type failSync struct{}

func (failSync) BeforeOp(op string, page uint32) error {
	if op == "sync" {
		return errors.New("injected sync failure")
	}
	return nil
}
func (failSync) CorruptRead(uint32, []byte) bool   { return false }
func (failSync) WriteLimit(_ uint32, size int) int { return size }

func TestLogFileAppendAndReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log")
	l, err := OpenLogFile(path)
	if err != nil {
		t.Fatal(err)
	}
	off1, err := l.Append([]byte("hello"))
	if err != nil || off1 != 0 {
		t.Fatalf("Append = (%d, %v), want (0, nil)", off1, err)
	}
	off2, err := l.Append([]byte("world"))
	if err != nil || off2 != 5 {
		t.Fatalf("Append = (%d, %v), want (5, nil)", off2, err)
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if got := l.Size(); got != 10 {
		t.Fatalf("Size = %d, want 10", got)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen appends at the end, not the start.
	l2, err := OpenLogFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if got := l2.Size(); got != 10 {
		t.Fatalf("Size after reopen = %d, want 10", got)
	}
	if off, err := l2.Append([]byte("!")); err != nil || off != 10 {
		t.Fatalf("Append after reopen = (%d, %v), want (10, nil)", off, err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "helloworld!" {
		t.Fatalf("file contents %q", data)
	}
}

func TestLogFileInjectedWriteFailureWritesNothing(t *testing.T) {
	l, err := OpenLogFile(filepath.Join(t.TempDir(), "log"))
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	l.SetInjector(&failOnWrite{n: 1})
	if _, err := l.Append([]byte("doomed")); err == nil {
		t.Fatal("Append under a write fault returned nil")
	}
	if got := l.Size(); got != 0 {
		t.Fatalf("Size after failed append = %d, want 0 (nothing written)", got)
	}
}

func TestLogFileTornAppendReportsShortWrite(t *testing.T) {
	l, err := OpenLogFile(filepath.Join(t.TempDir(), "log"))
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	l.SetInjector(&tearNext{limit: 3})
	off, err := l.Append([]byte("abcdef"))
	if !errors.Is(err, io.ErrShortWrite) {
		t.Fatalf("torn append err = %v, want io.ErrShortWrite", err)
	}
	if got := l.Size(); got != 3 {
		t.Fatalf("Size after torn append = %d, want 3 (the torn prefix)", got)
	}
	// The documented repair: truncate back to the returned offset.
	if err := l.Truncate(off); err != nil {
		t.Fatal(err)
	}
	l.SetInjector(nil)
	if off, err := l.Append([]byte("abcdef")); err != nil || off != 0 {
		t.Fatalf("Append after repair = (%d, %v), want (0, nil)", off, err)
	}
	_, _, torn := l.Stats()
	if torn != 1 {
		t.Fatalf("torn counter = %d, want 1", torn)
	}
}

func TestLogFileInjectedSyncFailure(t *testing.T) {
	l, err := OpenLogFile(filepath.Join(t.TempDir(), "log"))
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if _, err := l.Append([]byte("data")); err != nil {
		t.Fatal(err)
	}
	l.SetInjector(failSync{})
	if err := l.Sync(); err == nil {
		t.Fatal("Sync under a sync fault returned nil")
	}
	l.SetInjector(nil)
	if err := l.Sync(); err != nil {
		t.Fatalf("Sync after clearing faults: %v", err)
	}
}

func TestLogFileTruncateBeyondSizeRejected(t *testing.T) {
	l, err := OpenLogFile(filepath.Join(t.TempDir(), "log"))
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if err := l.Truncate(1); err == nil {
		t.Fatal("Truncate beyond size returned nil")
	}
}
