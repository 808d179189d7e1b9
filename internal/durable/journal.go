package durable

import (
	"encoding/binary"
	"encoding/json"
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

// Segment wire format. Each segment file is an 8-byte magic followed by
// frames:
//
//	len uint32 LE   payload length (1..maxRecordBytes)
//	crc uint32 LE   CRC-32 (IEEE) of the payload
//	payload         JSON-encoded Record
//
// A frame is only trusted when its CRC matches; CRC-32 catches every
// single-bit flip, so a mutated record can never decode as a different
// valid one. Rotated-away segments end with an opSeal frame — replay
// treats a missing seal on a non-final segment as corruption, so only
// the active segment's tail may legitimately be torn.
const (
	segMagic       = "TSIMWAL1"
	maxRecordBytes = 1 << 20
	frameHeader    = 8
)

// JournalOptions tunes segment rotation and fault injection.
type JournalOptions struct {
	// SegmentBytes rotates the active segment once it grows past this
	// size (default 1 MiB).
	SegmentBytes int64
	// CompactSegments compacts the whole journal down to one segment
	// whenever rotation would leave more than this many (default 4).
	CompactSegments int
	// TerminalKeep bounds how many terminal records survive compaction
	// (default 4096): older finished jobs fall out of the replayable
	// job table, but their results stay addressable in the Store.
	TerminalKeep int
	// Faults optionally injects planned host-disk failures into every
	// data write (never into reads), for degraded-mode tests.
	Faults *DiskFaults
}

func (o JournalOptions) withDefaults() JournalOptions {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 1 << 20
	}
	if o.CompactSegments <= 0 {
		o.CompactSegments = 4
	}
	if o.TerminalKeep <= 0 {
		o.TerminalKeep = 4096
	}
	return o
}

// Journal is the write-ahead log of job lifecycle transitions. Append
// is safe for concurrent use. The journal keeps the minimal in-memory
// state compaction needs: the accepted record of every live job and a
// bounded ring of terminal records.
type Journal struct {
	dir  string
	opts JournalOptions

	mu       sync.Mutex
	f        *os.File
	segIndex int
	segBytes int64
	segCount int
	allBytes int64 // across live segments
	seq      uint64
	broken   error // first write failure; sticky

	pending  map[string]Record // job id → accepted record, not yet terminal
	order    []string          // job ids in acceptance order (may hold finished ids; filtered by pending)
	terminal []Record          // seq order; see keptTerminal

	appends     int64
	compactions int64
	lastFsync   time.Duration
}

// Replayed is what a journal directory says happened: jobs accepted but
// not finished (to re-run), terminal records (to re-register), and the
// high-water sequence numbers to continue from.
type Replayed struct {
	Pending  []Record // acceptance order
	Terminal []Record // seq order
	MaxSeq   uint64
	TornTail bool // the active segment ended in a torn record that was ignored
	Records  int  // valid records decoded
}

// JournalStats is the journal's /stats contribution.
type JournalStats struct {
	Segments    int
	Bytes       int64
	Appends     int64
	Compactions int64
	LastFsync   time.Duration
	PendingJobs int
}

func segName(idx int) string { return fmt.Sprintf("seg-%08d.wal", idx) }

func segIndexOf(name string) (int, bool) {
	if !strings.HasPrefix(name, "seg-") || !strings.HasSuffix(name, ".wal") {
		return 0, false
	}
	n, err := strconv.Atoi(strings.TrimSuffix(strings.TrimPrefix(name, "seg-"), ".wal"))
	if err != nil || n <= 0 {
		return 0, false
	}
	return n, true
}

// OpenJournal replays dir and opens a fresh active segment holding the
// compacted surviving state (so every restart is also a compaction,
// and appends never follow a torn tail). A *CorruptError from replay
// aborts the open: the caller must not serve from lying history.
func OpenJournal(dir string, opts JournalOptions) (*Journal, *Replayed, error) {
	opts = opts.withDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, err
	}
	rep, segs, err := replayDir(dir)
	if err != nil {
		return nil, nil, err
	}
	j := &Journal{
		dir:     dir,
		opts:    opts,
		seq:     rep.MaxSeq,
		pending: map[string]Record{},
	}
	for _, rec := range rep.Pending {
		j.pending[rec.Job] = rec
		j.order = append(j.order, rec.Job)
	}
	j.terminal = append(j.terminal, rep.Terminal...)
	j.trimTerminalLocked()

	next := 1
	if len(segs) > 0 {
		next = segs[len(segs)-1].index + 1
	}
	if err := j.startSegmentLocked(next, true); err != nil {
		return nil, nil, err
	}
	// Old segments are superseded by the compacted one; their removal is
	// safe even if we crash mid-way (replay dedupes repeated records).
	for _, s := range segs {
		os.Remove(s.path)
	}
	j.segCount = 1
	j.allBytes = j.segBytes
	syncDir(dir)
	return j, rep, nil
}

type segInfo struct {
	index int
	path  string
}

// replayDir decodes every segment in order. Only the final segment may
// end in a torn record; anything else wrong is a *CorruptError.
func replayDir(dir string) (*Replayed, []segInfo, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, err
	}
	var segs []segInfo
	for _, e := range entries {
		if idx, ok := segIndexOf(e.Name()); ok {
			segs = append(segs, segInfo{index: idx, path: filepath.Join(dir, e.Name())})
		}
	}
	sort.Slice(segs, func(i, k int) bool { return segs[i].index < segs[k].index })

	rep := &Replayed{}
	pending := map[string]Record{}
	var order []string
	seenTerminal := map[string]bool{}
	for i, s := range segs {
		last := i == len(segs)-1
		recs, torn, err := decodeSegment(s.path, last)
		if err != nil {
			return nil, nil, err
		}
		rep.TornTail = rep.TornTail || torn
		for _, rec := range recs {
			rep.Records++
			if rec.Seq > rep.MaxSeq {
				rep.MaxSeq = rec.Seq
			}
			switch {
			case rec.Op == opSeal || rec.Op == OpRunning:
				// seal: bookkeeping only; running: the job re-runs either way.
			case rec.Op == OpAccepted:
				if _, dup := pending[rec.Job]; dup || seenTerminal[rec.Job] {
					break // duplicated record (compaction crash window) — idempotent
				}
				pending[rec.Job] = rec
				order = append(order, rec.Job)
			case Terminal(rec.Op):
				if seenTerminal[rec.Job] {
					break
				}
				// Enrich from the accepted record so terminal records stay
				// self-contained across compaction.
				if acc, ok := pending[rec.Job]; ok {
					if rec.Key == "" {
						rec.Key = acc.Key
					}
					if len(rec.Spec) == 0 {
						rec.Spec = acc.Spec
					}
					if rec.Tenant == "" {
						rec.Tenant = acc.Tenant
					}
					delete(pending, rec.Job)
				}
				seenTerminal[rec.Job] = true
				rep.Terminal = append(rep.Terminal, rec)
			}
		}
	}
	for _, id := range order {
		if rec, ok := pending[id]; ok {
			rep.Pending = append(rep.Pending, rec)
		}
	}
	return rep, segs, nil
}

// decodeSegment reads one segment. tornOK (final segment only) permits
// a truncated trailing record, which is dropped; every other structural
// problem is a *CorruptError with the offending offset.
func decodeSegment(path string, tornOK bool) (recs []Record, torn bool, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, false, err
	}
	corrupt := func(off int64, reason string) (recsOut []Record, tornOut bool, errOut error) {
		return nil, false, &CorruptError{Path: path, Offset: off, Reason: reason}
	}
	if len(data) < len(segMagic) {
		if tornOK {
			return nil, len(data) > 0, nil // crash while creating the segment
		}
		return corrupt(0, "short segment header")
	}
	if string(data[:len(segMagic)]) != segMagic {
		return corrupt(0, "bad segment magic")
	}
	off := len(segMagic)
	sealed := false
	for off < len(data) {
		if sealed {
			return corrupt(int64(off), "data after seal record")
		}
		rem := len(data) - off
		if rem < frameHeader {
			if tornOK {
				return recs, true, nil
			}
			return corrupt(int64(off), "truncated frame header in sealed segment")
		}
		n := binary.LittleEndian.Uint32(data[off:])
		crc := binary.LittleEndian.Uint32(data[off+4:])
		if n == 0 || n > maxRecordBytes {
			return corrupt(int64(off), fmt.Sprintf("implausible record length %d", n))
		}
		if uint32(rem-frameHeader) < n {
			if tornOK {
				return recs, true, nil
			}
			return corrupt(int64(off), "truncated record in sealed segment")
		}
		payload := data[off+frameHeader : off+frameHeader+int(n)]
		if crc32.ChecksumIEEE(payload) != crc {
			return corrupt(int64(off), "record checksum mismatch")
		}
		var rec Record
		if uerr := json.Unmarshal(payload, &rec); uerr != nil {
			return corrupt(int64(off), "undecodable record payload: "+uerr.Error())
		}
		if !validOp(rec.Op) {
			return corrupt(int64(off), fmt.Sprintf("unknown record op %q", rec.Op))
		}
		if rec.Op != opSeal && rec.Job == "" {
			return corrupt(int64(off), "record without a job id")
		}
		if rec.Op == opSeal {
			sealed = true
		}
		recs = append(recs, rec)
		off += frameHeader + int(n)
	}
	if !tornOK && !sealed {
		return corrupt(int64(off), "sealed segment missing seal record")
	}
	return recs, false, nil
}

func encodeFrame(rec Record) ([]byte, error) {
	payload, err := json.Marshal(rec)
	if err != nil {
		return nil, err
	}
	if len(payload) > maxRecordBytes {
		return nil, fmt.Errorf("durable: record %d bytes exceeds %d", len(payload), maxRecordBytes)
	}
	frame := make([]byte, frameHeader+len(payload))
	binary.LittleEndian.PutUint32(frame, uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:], crc32.ChecksumIEEE(payload))
	copy(frame[frameHeader:], payload)
	return frame, nil
}

// Append journals rec with an fsync before returning: once Append
// returns nil the record survives SIGKILL. The sequence number is
// assigned here.
func (j *Journal) Append(rec Record) error { return j.append(rec, true) }

// AppendLazy journals rec without forcing an fsync — used for records
// whose loss is harmless (running marks, cache-hit aliases): a crash
// merely replays the job to the same deterministic outcome. The bytes
// are durable no later than the next synced Append.
func (j *Journal) AppendLazy(rec Record) error { return j.append(rec, false) }

func (j *Journal) append(rec Record, sync bool) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.broken != nil {
		return j.broken
	}
	j.seq++
	rec.Seq = j.seq
	frame, err := encodeFrame(rec)
	if err != nil {
		return err
	}
	n, err := faultyWrite(j.f, j.opts.Faults, frame)
	j.segBytes += int64(n)
	j.allBytes += int64(n)
	if err != nil {
		// A partial frame is now on disk: exactly a torn tail. Refuse
		// further appends so we never write past it.
		j.broken = fmt.Errorf("durable: journal append: %w", err)
		return j.broken
	}
	if sync {
		t0 := time.Now()
		if err := j.f.Sync(); err != nil {
			j.broken = fmt.Errorf("durable: journal fsync: %w", err)
			return j.broken
		}
		j.lastFsync = time.Since(t0)
	}
	j.appends++
	j.noteLocked(rec)
	if j.segBytes >= j.opts.SegmentBytes {
		if err := j.rollLocked(); err != nil {
			j.broken = err
			return err
		}
	}
	return nil
}

// noteLocked maintains the compaction state from one appended record.
func (j *Journal) noteLocked(rec Record) {
	switch {
	case rec.Op == OpAccepted:
		if _, ok := j.pending[rec.Job]; !ok {
			j.pending[rec.Job] = rec
			j.order = append(j.order, rec.Job)
		}
	case Terminal(rec.Op):
		if acc, ok := j.pending[rec.Job]; ok {
			if rec.Key == "" {
				rec.Key = acc.Key
			}
			if len(rec.Spec) == 0 {
				rec.Spec = acc.Spec
			}
			if rec.Tenant == "" {
				rec.Tenant = acc.Tenant
			}
			delete(j.pending, rec.Job)
		}
		j.terminal = append(j.terminal, rec)
		j.trimTerminalLocked()
	}
}

// trimTerminalLocked drops terminal records older than the newest
// TerminalKeep. It waits until twice that many have piled up and then
// moves the newest down in place, so an append copies one record on
// average and allocates nothing; keptTerminal hides the surplus.
func (j *Journal) trimTerminalLocked() {
	keep := j.opts.TerminalKeep
	if len(j.terminal) < 2*keep {
		return
	}
	n := copy(j.terminal, j.terminal[len(j.terminal)-keep:])
	clear(j.terminal[n:])
	j.terminal = j.terminal[:n]
}

// keptTerminal returns the newest TerminalKeep terminal records.
func (j *Journal) keptTerminal() []Record {
	return j.terminal[max(0, len(j.terminal)-j.opts.TerminalKeep):]
}

// rollLocked rotates the active segment: seal it, open the next. When
// rotation would leave too many segments it compacts instead — the new
// segment is seeded with the surviving state and the old files deleted.
func (j *Journal) rollLocked() error {
	compact := j.segCount+1 > j.opts.CompactSegments
	sealFrame, err := encodeFrame(Record{Seq: j.seq, Op: opSeal})
	if err != nil {
		return err
	}
	if n, err := faultyWrite(j.f, j.opts.Faults, sealFrame); err != nil {
		j.allBytes += int64(n)
		return fmt.Errorf("durable: journal seal: %w", err)
	}
	j.allBytes += int64(len(sealFrame))
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("durable: journal seal fsync: %w", err)
	}
	j.f.Close()

	prevBytes := j.allBytes
	var old []string
	if compact {
		for i := j.segIndex - j.segCount + 1; i <= j.segIndex; i++ {
			old = append(old, filepath.Join(j.dir, segName(i)))
		}
	}
	if err := j.startSegmentLocked(j.segIndex+1, compact); err != nil {
		return err
	}
	if compact {
		for _, p := range old {
			os.Remove(p)
		}
		j.segCount = 1
		j.allBytes = j.segBytes
		j.compactions++
	} else {
		j.segCount++
		j.allBytes = prevBytes + j.segBytes
	}
	syncDir(j.dir)
	return nil
}

// startSegmentLocked creates segment idx. A seeded segment (open and
// compaction) carries the compacted surviving state — the bounded
// terminal ring, then every still-pending accepted record — so older
// segments become deletable; a plain rotation starts empty.
func (j *Journal) startSegmentLocked(idx int, seed bool) error {
	path := filepath.Join(j.dir, segName(idx))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("durable: create journal segment: %w", err)
	}
	var buf []byte
	buf = append(buf, segMagic...)
	if seed {
		for _, rec := range j.keptTerminal() {
			frame, err := encodeFrame(rec)
			if err != nil {
				f.Close()
				return err
			}
			buf = append(buf, frame...)
		}
		live := j.order[:0]
		for _, id := range j.order {
			if rec, ok := j.pending[id]; ok {
				live = append(live, id)
				frame, err := encodeFrame(rec)
				if err != nil {
					f.Close()
					return err
				}
				buf = append(buf, frame...)
			}
		}
		j.order = live
	}
	n, werr := faultyWrite(f, j.opts.Faults, buf)
	if werr == nil {
		werr = f.Sync()
	}
	if werr != nil {
		f.Close()
		return fmt.Errorf("durable: seed journal segment: %w", werr)
	}
	j.f = f
	j.segIndex = idx
	j.segBytes = int64(n)
	return nil
}

// Stats snapshots the journal's counters.
func (j *Journal) Stats() JournalStats {
	j.mu.Lock()
	defer j.mu.Unlock()
	return JournalStats{
		Segments:    j.segCount,
		Bytes:       j.allBytes,
		Appends:     j.appends,
		Compactions: j.compactions,
		LastFsync:   j.lastFsync,
		PendingJobs: len(j.pending),
	}
}

// Close seals the active segment and closes the file. A broken journal
// (after a write failure) closes without sealing — its tail is already
// torn and must stay that way for replay. Close is idempotent.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil
	}
	f := j.f
	j.f = nil
	if j.broken == nil {
		if frame, err := encodeFrame(Record{Seq: j.seq, Op: opSeal}); err == nil {
			if _, werr := faultyWrite(f, j.opts.Faults, frame); werr == nil {
				f.Sync()
			}
		}
	}
	err := f.Close()
	j.broken = fmt.Errorf("durable: journal closed")
	return err
}

// syncDir best-effort fsyncs a directory so renames and creates inside
// it are durable. Failure is ignored: the worst case is re-replaying a
// superseded segment, which replay dedupes.
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
}
