package durable

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
)

// Result-file wire format: an 8-byte magic, then
//
//	keyLen  uint32 LE
//	bodyLen uint32 LE
//	bodyCRC uint32 LE  CRC-32 (IEEE) of the body
//	key     keyLen bytes   (the canonical job key, for verification)
//	body    bodyLen bytes
//
// Files are written to a same-directory .tmp and renamed into place, so
// a reader never sees a half-written result; the checksum catches
// after-the-fact bit rot.
const (
	resMagic     = "TSIMRES1"
	resHeader    = 8 + 12
	maxStoreBody = 64 << 20
)

// Store is the content-addressed on-disk result store backing the
// service's in-memory LRU. Keys are canonical job keys; filenames are
// their SHA-256 digests, fanned out over 256 subdirectories. Reads
// verify the checksum and the embedded key: a mismatch quarantines the
// file and reads as a miss, so the deterministic re-run repopulates it.
type Store struct {
	dir    string
	faults *DiskFaults

	mu sync.Mutex // serialises writes per store; reads are lock-free

	hits        atomic.Int64
	misses      atomic.Int64
	puts        atomic.Int64
	corruptions atomic.Int64
}

// StoreStats is the store's /stats contribution.
type StoreStats struct {
	Hits        int64
	Misses      int64
	Puts        int64
	Corruptions int64
}

// OpenStore opens (creating if needed) a result store rooted at dir.
// faults may be nil; when set, planned host-disk failures are injected
// into writes. A data dir has one owner, so any temp file left in a
// fan-out directory is the remains of a Put that a crash cut short
// between write and rename; OpenStore deletes them.
func OpenStore(dir string, faults *DiskFaults) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(filepath.Join(dir, "quarantine"), 0o755); err != nil {
		return nil, err
	}
	stranded, err := filepath.Glob(filepath.Join(dir, "[0-9a-f][0-9a-f]", "*.tmp"))
	if err != nil {
		return nil, err
	}
	for _, tmp := range stranded {
		if err := os.Remove(tmp); err != nil {
			return nil, err
		}
	}
	return &Store{dir: dir, faults: faults}, nil
}

func (s *Store) path(key string) string {
	d := Digest(key)
	return filepath.Join(s.dir, d[:2], d+".res")
}

// Put durably stores body under key: temp file, write, fsync, rename,
// directory fsync. On any failure the temp file is removed — nothing is
// left stranded and the previous value (if any) is untouched.
func (s *Store) Put(key string, body []byte) error {
	if len(body) > maxStoreBody {
		return fmt.Errorf("durable: result %d bytes exceeds store cap %d", len(body), maxStoreBody)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	final := s.path(key)
	dir := filepath.Dir(final)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(dir, filepath.Base(final)+".*.tmp")
	if err != nil {
		return err
	}
	cleanup := func(err error) error {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	buf := make([]byte, 0, resHeader+len(key)+len(body))
	buf = append(buf, resMagic...)
	var hdr [12]byte
	binary.LittleEndian.PutUint32(hdr[0:], uint32(len(key)))
	binary.LittleEndian.PutUint32(hdr[4:], uint32(len(body)))
	binary.LittleEndian.PutUint32(hdr[8:], crc32.ChecksumIEEE(body))
	buf = append(buf, hdr[:]...)
	buf = append(buf, key...)
	buf = append(buf, body...)
	if _, err := faultyWrite(tmp, s.faults, buf); err != nil {
		return cleanup(fmt.Errorf("durable: store write: %w", err))
	}
	if err := tmp.Sync(); err != nil {
		return cleanup(fmt.Errorf("durable: store fsync: %w", err))
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Rename(tmp.Name(), final); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	syncDir(dir)
	s.puts.Add(1)
	return nil
}

// Get returns the stored body for key. Any corruption — bad magic,
// impossible lengths, checksum or key mismatch — quarantines the file
// and reads as (nil, false), never as wrong bytes.
func (s *Store) Get(key string) ([]byte, bool) {
	path := s.path(key)
	data, err := os.ReadFile(path)
	if err != nil {
		s.misses.Add(1)
		return nil, false
	}
	body, ok := decodeResult(data, key)
	if !ok {
		s.quarantine(path)
		s.corruptions.Add(1)
		s.misses.Add(1)
		return nil, false
	}
	s.hits.Add(1)
	return body, true
}

func decodeResult(data []byte, key string) ([]byte, bool) {
	if len(data) < resHeader || string(data[:8]) != resMagic {
		return nil, false
	}
	keyLen := binary.LittleEndian.Uint32(data[8:])
	bodyLen := binary.LittleEndian.Uint32(data[12:])
	crc := binary.LittleEndian.Uint32(data[16:])
	if keyLen > uint32(len(key)) || bodyLen > maxStoreBody ||
		uint64(len(data)) != uint64(resHeader)+uint64(keyLen)+uint64(bodyLen) {
		return nil, false
	}
	if string(data[resHeader:resHeader+int(keyLen)]) != key {
		return nil, false
	}
	body := data[resHeader+int(keyLen):]
	if crc32.ChecksumIEEE(body) != crc {
		return nil, false
	}
	return body, true
}

// quarantine moves a corrupt result file aside (never deletes it — the
// operator may want the evidence) under quarantine/ with a unique name.
func (s *Store) quarantine(path string) {
	qdir := filepath.Join(s.dir, "quarantine")
	base := filepath.Base(path)
	for i := 0; ; i++ {
		dst := filepath.Join(qdir, base)
		if i > 0 {
			dst += "." + strconv.Itoa(i)
		}
		if _, err := os.Lstat(dst); err == nil {
			continue
		}
		if os.Rename(path, dst) == nil || i > 16 {
			return
		}
	}
}

// Stats snapshots the store's counters.
func (s *Store) Stats() StoreStats {
	return StoreStats{
		Hits:        s.hits.Load(),
		Misses:      s.misses.Load(),
		Puts:        s.puts.Load(),
		Corruptions: s.corruptions.Load(),
	}
}
