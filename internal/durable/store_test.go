package durable

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func noTempFiles(t *testing.T, root string) {
	t.Helper()
	err := filepath.Walk(root, func(path string, info os.FileInfo, err error) error {
		if err == nil && strings.HasSuffix(path, ".tmp") {
			t.Errorf("stranded temp file %s", path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	key := "workload=saxpy;seed=1"
	body := []byte(`{"ok":true}` + "\n")
	if _, ok := s.Get(key); ok {
		t.Fatal("miss expected on empty store")
	}
	if err := s.Put(key, body); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Get(key)
	if !ok || !bytes.Equal(got, body) {
		t.Fatalf("get = %q ok=%v, want the stored body", got, ok)
	}
	// Overwrite with the same content is idempotent and atomic.
	if err := s.Put(key, body); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Puts != 2 || st.Hits != 1 || st.Misses != 1 || st.Corruptions != 0 {
		t.Fatalf("stats = %+v", st)
	}
	noTempFiles(t, dir)

	// A second Store over the same dir sees the data (restart survival).
	s2, err := OpenStore(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := s2.Get(key); !ok || !bytes.Equal(got, body) {
		t.Fatal("store did not survive reopen")
	}
}

// TestOpenStoreRemovesStrandedTemp: a crash between a Put's write and
// its rename leaves a temp file in the fan-out directory. Reopening the
// store deletes it, and leaves the stored result and the quarantine
// evidence alone.
func TestOpenStoreRemovesStrandedTemp(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	key := "workload=dlu;seed=5"
	if err := s.Put(key, []byte("kept")); err != nil {
		t.Fatal(err)
	}
	tmp := s.path(key) + ".123456.tmp"
	quarantined := filepath.Join(dir, "quarantine", filepath.Base(s.path("other")))
	for _, f := range []string{tmp, quarantined} {
		if err := os.WriteFile(f, []byte("partial"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	s2, err := OpenStore(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	noTempFiles(t, dir)
	if _, err := os.Stat(quarantined); err != nil {
		t.Errorf("quarantined file gone after reopen: %v", err)
	}
	if got, ok := s2.Get(key); !ok || string(got) != "kept" {
		t.Errorf("stored result after reopen = %q ok=%v, want kept", got, ok)
	}
}

// TestStoreCorruptionQuarantined flips a byte in a stored result: the
// read must miss, move the file to quarantine/, and count a corruption
// — never return wrong bytes.
func TestStoreCorruptionQuarantined(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	key := "workload=lu;seed=9"
	body := bytes.Repeat([]byte("result "), 64)
	if err := s.Put(key, body); err != nil {
		t.Fatal(err)
	}
	path := s.path(key)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-3] ^= 0x01
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(key); ok {
		t.Fatal("corrupt entry served as a hit")
	}
	if st := s.Stats(); st.Corruptions != 1 {
		t.Fatalf("corruptions = %d, want 1", st.Corruptions)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatal("corrupt file left in place")
	}
	q, err := os.ReadDir(filepath.Join(dir, "quarantine"))
	if err != nil || len(q) != 1 {
		t.Fatalf("quarantine holds %d files (err %v), want 1", len(q), err)
	}
	// The slot is free again: a fresh Put repopulates and serves.
	if err := s.Put(key, body); err != nil {
		t.Fatal(err)
	}
	if got, ok := s.Get(key); !ok || !bytes.Equal(got, body) {
		t.Fatal("repopulated slot does not serve")
	}
}

// TestStoreWrongKeyIsMiss: a digest collision (or a file moved by hand)
// is caught by the embedded-key check.
func TestStoreWrongKeyIsMiss(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("key-a", []byte("a")); err != nil {
		t.Fatal(err)
	}
	// Graft key-a's file onto key-b's address.
	if err := os.MkdirAll(filepath.Dir(s.path("key-b")), 0o755); err != nil {
		t.Fatal(err)
	}
	data, _ := os.ReadFile(s.path("key-a"))
	if err := os.WriteFile(s.path("key-b"), data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get("key-b"); ok {
		t.Fatal("foreign file served under the wrong key")
	}
	if st := s.Stats(); st.Corruptions != 1 {
		t.Fatalf("corruptions = %d, want 1", st.Corruptions)
	}
}

// TestStorePutFaultLeavesNoResidue: planned ENOSPC and EIO mid-Put must
// error out without stranding a temp file or clobbering the previous
// value.
func TestStorePutFaultLeavesNoResidue(t *testing.T) {
	for _, kind := range []FaultKind{FaultENOSPC, FaultShortWrite, FaultEIO} {
		t.Run(kind.String(), func(t *testing.T) {
			dir := t.TempDir()
			s, err := OpenStore(dir, FaultAt(40, kind))
			if err != nil {
				t.Fatal(err)
			}
			key := "workload=fft;seed=3"
			if err := s.Put(key, bytes.Repeat([]byte("x"), 256)); err == nil {
				t.Fatalf("%s fault did not surface from Put", kind)
			}
			noTempFiles(t, dir)
			if _, ok := s.Get(key); ok {
				t.Fatal("failed Put became visible")
			}
			// The plan is exhausted; the durable layer recovers on retry.
			if err := s.Put(key, []byte("good")); err != nil {
				t.Fatal(err)
			}
			if got, ok := s.Get(key); !ok || string(got) != "good" {
				t.Fatal("retry after fault did not serve")
			}
		})
	}
}
