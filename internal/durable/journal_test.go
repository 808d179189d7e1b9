package durable

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func acceptedRec(i int) Record {
	return Record{
		Op:     OpAccepted,
		Job:    fmt.Sprintf("j%d", i),
		Tenant: "t",
		Key:    fmt.Sprintf("workload=w;seed=%d", i),
		Spec:   json.RawMessage(fmt.Sprintf(`{"workload":"w","flags":{"seed":"%d"}}`, i)),
	}
}

// activeSegment returns the path of the journal's single live segment.
func activeSegment(t *testing.T, dir string) string {
	t.Helper()
	segs := listSegments(t, dir)
	if len(segs) == 0 {
		t.Fatal("no journal segments")
	}
	return segs[len(segs)-1]
}

func listSegments(t testing.TB, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var segs []string
	for _, e := range entries {
		if _, ok := segIndexOf(e.Name()); ok {
			segs = append(segs, filepath.Join(dir, e.Name()))
		}
	}
	return segs
}

func TestJournalRoundTrip(t *testing.T) {
	dir := t.TempDir()
	j, rep, err := OpenJournal(dir, JournalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Pending) != 0 || len(rep.Terminal) != 0 || rep.TornTail {
		t.Fatalf("fresh dir replay = %+v", rep)
	}
	for i := 0; i < 4; i++ {
		if err := j.Append(acceptedRec(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.AppendLazy(Record{Op: OpRunning, Job: "j0"}); err != nil {
		t.Fatal(err)
	}
	if err := j.Append(Record{Op: OpDone, Job: "j0"}); err != nil {
		t.Fatal(err)
	}
	if err := j.Append(Record{Op: OpFailed, Job: "j1", Err: "boom"}); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	_, rep, err = OpenJournal(dir, JournalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got := jobIDs(rep.Pending); got != "j2,j3" {
		t.Fatalf("pending = %s, want j2,j3", got)
	}
	if got := jobIDs(rep.Terminal); got != "j0,j1" {
		t.Fatalf("terminal = %s, want j0,j1", got)
	}
	// Terminal records must be self-contained: key and spec inherited
	// from the accepted record.
	for _, rec := range rep.Terminal {
		if rec.Key == "" || len(rec.Spec) == 0 {
			t.Fatalf("terminal record not self-contained: %+v", rec)
		}
	}
	if rep.Terminal[1].Err != "boom" {
		t.Fatalf("failure detail lost: %+v", rep.Terminal[1])
	}
	if rep.TornTail {
		t.Fatal("clean close reported a torn tail")
	}
}

func jobIDs(recs []Record) string {
	ids := make([]string, len(recs))
	for i, r := range recs {
		ids[i] = r.Job
	}
	return strings.Join(ids, ",")
}

// TestJournalRotationAndCompaction drives the segment limit hard enough
// to rotate and compact several times; the replayed state must match
// the logical job table regardless, and old segment files must be gone.
func TestJournalRotationAndCompaction(t *testing.T) {
	dir := t.TempDir()
	j, _, err := OpenJournal(dir, JournalOptions{SegmentBytes: 512, CompactSegments: 3})
	if err != nil {
		t.Fatal(err)
	}
	const jobs = 200
	for i := 0; i < jobs; i++ {
		if err := j.Append(acceptedRec(i)); err != nil {
			t.Fatal(err)
		}
		if i%2 == 0 {
			if err := j.Append(Record{Op: OpDone, Job: fmt.Sprintf("j%d", i)}); err != nil {
				t.Fatal(err)
			}
		}
	}
	st := j.Stats()
	if st.Compactions == 0 {
		t.Fatalf("no compactions after %d appends with 512-byte segments: %+v", 2*jobs, st)
	}
	if st.PendingJobs != jobs/2 {
		t.Fatalf("pending = %d, want %d", st.PendingJobs, jobs/2)
	}
	if segs := listSegments(t, dir); len(segs) > 3 {
		t.Fatalf("compaction left %d segments: %v", len(segs), segs)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	_, rep, err := OpenJournal(dir, JournalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Pending) != jobs/2 {
		t.Fatalf("replayed pending = %d, want %d", len(rep.Pending), jobs/2)
	}
	for _, rec := range rep.Pending {
		var n int
		if _, err := fmt.Sscanf(rec.Job, "j%d", &n); err != nil || n%2 == 0 {
			t.Fatalf("unexpected pending job %q", rec.Job)
		}
	}
	// Every odd job is pending, every even job terminal (bounded ring
	// kept them all: 100 < default TerminalKeep).
	if len(rep.Terminal) != jobs/2 {
		t.Fatalf("replayed terminal = %d, want %d", len(rep.Terminal), jobs/2)
	}
}

// TestJournalTerminalRingKeepsNewest: through any number of appends the
// terminal ring keeps exactly the newest TerminalKeep records, and a
// compaction seeds the new segment with those and no others.
func TestJournalTerminalRingKeepsNewest(t *testing.T) {
	const keep, jobs = 5, 23
	dir := t.TempDir()
	j, _, err := OpenJournal(dir, JournalOptions{TerminalKeep: keep, SegmentBytes: 1, CompactSegments: 1})
	if err != nil {
		t.Fatal(err)
	}
	newest := func(n int) []string {
		var ids []string
		for i := max(0, n-keep); i < n; i++ {
			ids = append(ids, fmt.Sprintf("j%d", i))
		}
		return ids
	}
	jobsOf := func(recs []Record) []string {
		var ids []string
		for _, rec := range recs {
			ids = append(ids, rec.Job)
		}
		return ids
	}
	for i := 0; i < jobs; i++ {
		if err := j.Append(Record{Op: OpDone, Job: fmt.Sprintf("j%d", i)}); err != nil {
			t.Fatal(err)
		}
		if got, want := jobsOf(j.keptTerminal()), newest(i+1); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("after %d appends the ring keeps %v, want %v", i+1, got, want)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	_, rep, err := OpenJournal(dir, JournalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := jobsOf(rep.Terminal), newest(jobs); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("replayed terminal records %v, want %v", got, want)
	}
}

// TestJournalTornTailIgnored truncates the active segment mid-record:
// replay must keep the clean prefix, flag the torn tail, and not error.
func TestJournalTornTailIgnored(t *testing.T) {
	dir := t.TempDir()
	j, _, err := OpenJournal(dir, JournalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := j.Append(acceptedRec(i)); err != nil {
			t.Fatal(err)
		}
	}
	// Simulate SIGKILL: no Close, then chop bytes off the tail.
	seg := activeSegment(t, dir)
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	for cut := 1; cut < 12; cut++ {
		if err := os.WriteFile(seg, data[:len(data)-cut], 0o644); err != nil {
			t.Fatal(err)
		}
		rep, _, err := replayDir(dir)
		if err != nil {
			t.Fatalf("cut %d: torn tail misreported as error: %v", cut, err)
		}
		if !rep.TornTail {
			t.Fatalf("cut %d: torn tail not flagged", cut)
		}
		if got := jobIDs(rep.Pending); got != "j0,j1" {
			t.Fatalf("cut %d: pending = %s, want the clean prefix j0,j1", cut, got)
		}
	}
}

// TestJournalMidFileCorruptionIsTyped flips one byte in the first
// record: replay must fail with a *CorruptError naming the segment.
func TestJournalMidFileCorruptionIsTyped(t *testing.T) {
	dir := t.TempDir()
	j, _, err := OpenJournal(dir, JournalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := j.Append(acceptedRec(i)); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()
	seg := activeSegment(t, dir)
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a payload byte of the first record (past magic + frame header).
	data[len(segMagic)+frameHeader+2] ^= 0x40
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, err = replayDir(dir)
	var ce *CorruptError
	if !errors.As(err, &ce) {
		t.Fatalf("corruption error = %v, want *CorruptError", err)
	}
	if ce.Path != seg || ce.Offset != int64(len(segMagic)) {
		t.Fatalf("corruption located at %s:%d, want %s:%d", ce.Path, ce.Offset, seg, len(segMagic))
	}
	if _, _, err := OpenJournal(dir, JournalOptions{}); err == nil {
		t.Fatal("OpenJournal accepted a corrupt journal")
	}
}

// TestJournalSealDetectsMidSegmentTruncation: truncating a *sealed*
// (non-final) segment must be corruption, not a tolerated torn tail.
func TestJournalSealDetectsMidSegmentTruncation(t *testing.T) {
	dir := t.TempDir()
	j, _, err := OpenJournal(dir, JournalOptions{SegmentBytes: 256, CompactSegments: 100})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if err := j.Append(acceptedRec(i)); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()
	segs := listSegments(t, dir)
	if len(segs) < 2 {
		t.Fatalf("expected multiple segments, got %v", segs)
	}
	first := segs[0]
	data, err := os.ReadFile(first)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(first, data[:len(data)-5], 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, err = replayDir(dir)
	var ce *CorruptError
	if !errors.As(err, &ce) {
		t.Fatalf("truncated sealed segment: err = %v, want *CorruptError", err)
	}
}

// TestJournalImplausibleLengthIsCorrupt: a frame declaring a length
// beyond the record cap must be typed corruption even at the tail.
func TestJournalImplausibleLengthIsCorrupt(t *testing.T) {
	dir := t.TempDir()
	j, _, err := OpenJournal(dir, JournalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append(acceptedRec(0)); err != nil {
		t.Fatal(err)
	}
	j.Close()
	seg := activeSegment(t, dir)
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint32(data[len(segMagic):], maxRecordBytes+1)
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}
	var ce *CorruptError
	if _, _, err := replayDir(dir); !errors.As(err, &ce) {
		t.Fatalf("implausible length: err = %v, want *CorruptError", err)
	}
}

// TestJournalShortWriteFaultLeavesRecoverableTail: an injected short
// write breaks the journal (sticky error) but the on-disk tail is a
// legitimate torn record — the next open recovers the prefix cleanly.
func TestJournalShortWriteFaultLeavesRecoverableTail(t *testing.T) {
	dir := t.TempDir()
	j, _, err := OpenJournal(dir, JournalOptions{
		Faults: FaultAt(400, FaultShortWrite),
	})
	if err != nil {
		t.Fatal(err)
	}
	var appended, failedAt int
	for i := 0; i < 20; i++ {
		if err := j.Append(acceptedRec(i)); err != nil {
			failedAt = i
			break
		}
		appended++
	}
	if appended == 20 {
		t.Fatal("short-write fault never fired")
	}
	// The journal is now broken: further appends fail fast.
	if err := j.Append(acceptedRec(99)); err == nil {
		t.Fatal("append after disk fault succeeded")
	}
	j.Close()

	_, rep, err := OpenJournal(dir, JournalOptions{})
	if err != nil {
		t.Fatalf("replay after short write: %v", err)
	}
	if len(rep.Pending) != appended {
		t.Fatalf("recovered %d jobs, want the %d appended before the fault (failed at %d)",
			len(rep.Pending), appended, failedAt)
	}
}
