package journal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"gpm/internal/graph"
)

// testUpdates fabricates a deterministic batch for seq s.
func testUpdates(s uint64, n int) []graph.Update {
	ups := make([]graph.Update, n)
	for i := range ups {
		op := graph.InsertEdge
		if (int(s)+i)%3 == 0 {
			op = graph.DeleteEdge
		}
		ups[i] = graph.Update{Op: op, From: int(s) + i, To: int(s) + i + 1}
	}
	return ups
}

func appendCommits(t *testing.T, j *Journal, from, to uint64) {
	t.Helper()
	for s := from; s <= to; s++ {
		if err := j.AppendCommit(s, testUpdates(s, int(s%4))); err != nil {
			t.Fatalf("append %d: %v", s, err)
		}
	}
}

func checkCommits(t *testing.T, j *Journal, fromSeq, wantFirst, wantLast uint64) {
	t.Helper()
	cs, err := j.Commits(fromSeq)
	if err != nil {
		t.Fatalf("Commits(%d): %v", fromSeq, err)
	}
	if uint64(len(cs)) != wantLast-wantFirst+1 {
		t.Fatalf("Commits(%d): %d commits, want %d", fromSeq, len(cs), wantLast-wantFirst+1)
	}
	for i, c := range cs {
		want := wantFirst + uint64(i)
		if c.Seq != want {
			t.Fatalf("Commits(%d)[%d].Seq = %d, want %d", fromSeq, i, c.Seq, want)
		}
		wantUps := testUpdates(want, int(want%4))
		if len(c.Updates) != len(wantUps) {
			t.Fatalf("seq %d: %d updates, want %d", want, len(c.Updates), len(wantUps))
		}
		for k := range wantUps {
			if c.Updates[k] != wantUps[k] {
				t.Fatalf("seq %d update %d: %v want %v", want, k, c.Updates[k], wantUps[k])
			}
		}
	}
}

// TestMemoryRingReplay covers the memory-only journal: replay within the
// ring, eviction beyond it, and head/oldest accounting.
func TestMemoryRingReplay(t *testing.T) {
	j := New(WithRing(10))
	appendCommits(t, j, 1, 25)
	checkCommits(t, j, 15, 16, 25)
	checkCommits(t, j, 20, 21, 25)
	if cs, err := j.Commits(25); err != nil || len(cs) != 0 {
		t.Fatalf("Commits(head) = %v, %v", cs, err)
	}
	if _, err := j.Commits(5); !errors.Is(err, ErrCompacted) {
		t.Fatalf("Commits(5) err = %v, want ErrCompacted", err)
	}
	st := j.Stats()
	if st.Durable || st.HeadSeq != 25 || st.OldestSeq != 16 || st.Commits != 25 {
		t.Fatalf("stats %+v", st)
	}
}

// TestDurableRoundtrip writes commits and meta records, reopens, and
// checks the replayed state matches exactly.
func TestDurableRoundtrip(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.AppendRegister(0, "watch", "sim", []byte("node 0 label=\"A\"\n")); err != nil {
		t.Fatal(err)
	}
	appendCommits(t, j, 1, 8)
	if err := j.AppendUnregister(8, "watch"); err != nil {
		t.Fatal(err)
	}
	appendCommits(t, j, 9, 12)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal("second Close must be a no-op:", err)
	}
	if err := j.AppendCommit(13, nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("append after close: %v", err)
	}

	j2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	checkCommits(t, j2, 0, 1, 12)
	snap, tail := j2.RecoveredState()
	if snap != nil {
		t.Fatalf("unexpected snapshot %+v", snap)
	}
	if len(tail) != 14 {
		t.Fatalf("tail has %d records, want 14", len(tail))
	}
	if tail[0].Type != RecRegister || tail[0].ID != "watch" || tail[0].Kind != "sim" ||
		string(tail[0].Def) != "node 0 label=\"A\"\n" {
		t.Fatalf("register record %+v", tail[0])
	}
	if tail[9].Type != RecUnregister || tail[9].ID != "watch" || tail[9].Seq != 8 {
		t.Fatalf("unregister record %+v", tail[9])
	}
	for i, rec := range tail {
		if rec.LSN != uint64(i+1) {
			t.Fatalf("tail[%d].LSN = %d", i, rec.LSN)
		}
	}
	// The second RecoveredState hand-off is empty.
	if snap, tail := j2.RecoveredState(); snap != nil || tail != nil {
		t.Fatal("RecoveredState must hand off only once")
	}
	// Appending after recovery continues the sequence.
	appendCommits(t, j2, 13, 14)
	checkCommits(t, j2, 10, 11, 14)
}

// TestSegmentRotationAndDiskFallback forces tiny segments and a tiny ring
// so deep replay must hit the sealed segment files.
func TestSegmentRotationAndDiskFallback(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(dir, WithRing(4), WithSegmentBytes(256))
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	appendCommits(t, j, 1, 60)
	st := j.Stats()
	if st.Segments < 2 {
		t.Fatalf("expected rotation, got %d segments (%d bytes)", st.Segments, st.Bytes)
	}
	if st.OldestSeq != 1 || st.HeadSeq != 60 {
		t.Fatalf("stats %+v", st)
	}
	// The ring holds only 4 commits; this replay must come from disk.
	checkCommits(t, j, 0, 1, 60)
	checkCommits(t, j, 30, 31, 60)
}

// TestSnapshotCompactionAndRecovery checkpoints mid-stream and verifies
// covered segments are deleted, replay availability shrinks accordingly,
// and recovery = snapshot + tail.
func TestSnapshotCompactionAndRecovery(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(dir, WithRing(4), WithSegmentBytes(128))
	if err != nil {
		t.Fatal(err)
	}
	g := graph.New()
	a := g.AddNode(graph.NewTuple("label", `"A"`))
	b := g.AddNode(graph.NewTuple("label", `"B"`))
	g.AddEdge(a, b)

	appendCommits(t, j, 1, 30)
	pats := []PatternDef{{ID: "q", Kind: "bsim", Def: []byte("node 0\n"), RegSeq: 7}}
	if err := j.WriteSnapshot(30, g, pats); err != nil {
		t.Fatal(err)
	}
	appendCommits(t, j, 31, 40)

	// Commits before the snapshot are compacted away (ring holds 37..40).
	if _, err := j.Commits(10); !errors.Is(err, ErrCompacted) {
		t.Fatalf("pre-snapshot replay: %v", err)
	}
	checkCommits(t, j, 30, 31, 40)
	st := j.Stats()
	if st.SnapshotSeq != 30 || st.OldestSeq != 31 {
		t.Fatalf("stats %+v", st)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	j2, err := Open(dir, WithRing(4))
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	snap, tail := j2.RecoveredState()
	if snap == nil || snap.Seq != 30 {
		t.Fatalf("snapshot %+v", snap)
	}
	if snap.Graph.NumNodes() != 2 || !snap.Graph.HasEdge(a, b) {
		t.Fatalf("snapshot graph %v", snap.Graph)
	}
	if len(snap.Patterns) != 1 || snap.Patterns[0].ID != "q" || snap.Patterns[0].Kind != "bsim" ||
		snap.Patterns[0].RegSeq != 7 {
		t.Fatalf("snapshot patterns %+v", snap.Patterns)
	}
	nCommits := 0
	for _, rec := range tail {
		if rec.Type == RecCommit {
			nCommits++
			if rec.Seq <= 30 {
				t.Fatalf("tail contains pre-snapshot commit %d", rec.Seq)
			}
		}
	}
	if nCommits != 10 {
		t.Fatalf("tail has %d commits, want 10", nCommits)
	}
	if j2.HeadSeq() != 40 {
		t.Fatalf("head %d", j2.HeadSeq())
	}
	checkCommits(t, j2, 30, 31, 40)
}

// TestTornTailRecovery is the crash-recovery satellite: a journal whose
// final record is deliberately truncated must reopen to the last valid
// seq and accept appends from there.
func TestTornTailRecovery(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	appendCommits(t, j, 1, 10)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	// Tear the tail: chop bytes off the end of the newest segment.
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.gpwal"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("segments: %v %v", segs, err)
	}
	last := segs[len(segs)-1]
	fi, err := os.Stat(last)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(last, fi.Size()-3); err != nil {
		t.Fatal(err)
	}

	j2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if j2.HeadSeq() != 9 {
		t.Fatalf("head after torn tail = %d, want 9", j2.HeadSeq())
	}
	checkCommits(t, j2, 0, 1, 9)
	// The journal accepts new commits from the recovered head.
	appendCommits(t, j2, 10, 12)
	if err := j2.Close(); err != nil {
		t.Fatal(err)
	}

	j3, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer j3.Close()
	checkCommits(t, j3, 0, 1, 12)
}

// TestCorruptMiddleRecord flips a byte inside an earlier record: recovery
// must stop at the corruption point, not resurrect records beyond it.
func TestCorruptMiddleRecord(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	appendCommits(t, j, 1, 6)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.gpwal"))
	data, err := os.ReadFile(segs[len(segs)-1])
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(segs[len(segs)-1], data, 0o644); err != nil {
		t.Fatal(err)
	}
	j2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if head := j2.HeadSeq(); head >= 6 {
		t.Fatalf("corrupt middle record survived: head %d", head)
	}
}

// TestCorruptCoveredSegmentKeepsTail: corruption in a segment fully
// covered by the latest snapshot must not destroy the later segments
// holding acknowledged post-snapshot commits.
func TestCorruptCoveredSegmentKeepsTail(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(dir, WithRing(4), WithSegmentBytes(128))
	if err != nil {
		t.Fatal(err)
	}
	g := graph.New()
	g.AddNode(nil)
	appendCommits(t, j, 1, 30)
	if err := j.WriteSnapshot(30, g, nil); err != nil {
		t.Fatal(err)
	}
	appendCommits(t, j, 31, 40)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	// A leftover corrupt segment from before the snapshot (e.g. a crash
	// raced compaction): lexically first, contents garbage.
	if err := os.WriteFile(filepath.Join(dir, segName(0)), []byte("not a frame at all"), 0o644); err != nil {
		t.Fatal(err)
	}

	j2, err := Open(dir, WithRing(4))
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if j2.HeadSeq() != 40 {
		t.Fatalf("head %d after covered corruption, want 40 (post-snapshot commits destroyed)", j2.HeadSeq())
	}
	checkCommits(t, j2, 30, 31, 40)
}

// TestPostSnapshotGapDropsLaterSegments: a gap in the LSN chain beyond
// the snapshot (a whole segment of acknowledged commits missing) must end
// the replayable tail there — later records must not replay over missing
// history — and the loss must be loud in Stats.
func TestPostSnapshotGapDropsLaterSegments(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(dir, WithSegmentBytes(128))
	if err != nil {
		t.Fatal(err)
	}
	appendCommits(t, j, 1, 40)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	segs, _ := filepath.Glob(filepath.Join(dir, segPattern))
	if len(segs) < 3 {
		t.Fatalf("want >= 3 segments, got %d", len(segs))
	}
	if err := os.Remove(segs[1]); err != nil { // a middle segment vanishes
		t.Fatal(err)
	}

	j2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	st := j2.Stats()
	if st.HeadSeq >= 40 {
		t.Fatalf("head %d: records replayed over a mid-log gap", st.HeadSeq)
	}
	if st.LastError == "" {
		t.Fatal("a destroyed mid-log range must be surfaced in Stats.LastError")
	}
	checkCommits(t, j2, 0, 1, st.HeadSeq)
}

// TestReset wipes everything and re-seeds with a snapshot of the new
// graph at seq 0.
func TestReset(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	appendCommits(t, j, 1, 5)
	g := graph.New()
	g.AddNode(nil)
	g.AddNode(nil)
	g.AddEdge(0, 1)
	if err := j.Reset(g); err != nil {
		t.Fatal(err)
	}
	if j.HeadSeq() != 0 {
		t.Fatalf("head after reset = %d", j.HeadSeq())
	}
	appendCommits(t, j, 1, 3)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	j2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	snap, tail := j2.RecoveredState()
	if snap == nil || snap.Seq != 0 || snap.Graph.NumEdges() != 1 {
		t.Fatalf("post-reset snapshot %+v", snap)
	}
	nCommits := 0
	for _, rec := range tail {
		if rec.Type == RecCommit {
			nCommits++
		}
	}
	if nCommits != 3 || j2.HeadSeq() != 3 {
		t.Fatalf("post-reset tail: %d commits, head %d", nCommits, j2.HeadSeq())
	}
}

// TestReplayStreamsMetaRecords: the tail recovery replays
// (RecoveredState) carries meta records and commits in append order.
func TestReplayStreamsMetaRecords(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	j.AppendRegister(0, "a", "sim", []byte("p"))
	appendCommits(t, j, 1, 2)
	j.AppendUnregister(2, "a")
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	j2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	_, tail := j2.RecoveredState()
	var kinds []RecordType
	for _, rec := range tail {
		kinds = append(kinds, rec.Type)
	}
	want := []RecordType{RecRegister, RecCommit, RecCommit, RecUnregister}
	if fmt.Sprint(kinds) != fmt.Sprint(want) {
		t.Fatalf("recovered tail order %v, want %v", kinds, want)
	}
}

// TestAppendRejectsSeqGap: once a commit append is skipped (e.g. a disk
// failure made the owner's seq move past the journal head), later appends
// must be rejected rather than recorded past a gap — Commits/Recover must
// never silently skip a commit.
func TestAppendRejectsSeqGap(t *testing.T) {
	j := New()
	appendCommits(t, j, 1, 3)
	if err := j.AppendCommit(5, nil); err == nil {
		t.Fatal("appending seq 5 after head 3 must fail")
	}
	if err := j.AppendCommit(4, nil); err != nil {
		t.Fatalf("contiguous append after a rejected gap: %v", err)
	}
	if st := j.Stats(); st.HeadSeq != 4 || st.LastError == "" {
		t.Fatalf("stats %+v", st)
	}
}

// TestOversizedRecordRejectedAtAppend: a record larger than the recovery
// scanner's corruption threshold must be rejected up front — acking it
// would destroy it (and everything after) on the next Open.
func TestOversizedRecordRejectedAtAppend(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	appendCommits(t, j, 1, 2)
	if err := j.AppendRegister(2, "big", "sim", make([]byte, maxRecordBytes+1)); err == nil {
		t.Fatal("oversized record must be rejected at append time")
	}
	// The failure is sticky (ordering after a skipped record is not
	// trustworthy) and loud.
	if err := j.AppendCommit(3, nil); err == nil {
		t.Fatal("appends must stop after a failed append")
	}
	if st := j.Stats(); st.LastError == "" || st.HeadSeq != 2 {
		t.Fatalf("stats %+v", st)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	// The intact prefix recovers cleanly.
	j2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	checkCommits(t, j2, 0, 1, 2)
}
