package journal

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"gpm/internal/graph"
)

// Snapshot files checkpoint the full registry state — graph plus standing
// patterns — at one (LSN, seq) point, bounding recovery to "load latest
// snapshot, replay the record tail" and letting every segment fully
// covered by the snapshot be deleted (compaction).
//
// File format: one frame (same u32 len | u32 crc header as segment
// records) whose payload is
//
//	"GPMSNAP1" | uvarint lsn | uvarint seq | bytes(graph text)
//	| uvarint npatterns | npatterns × (bytes(id) | bytes(kind) | bytes(def))
//
// Snapshots are written to a temp file, fsynced, then renamed into place,
// so a crash mid-write never destroys the previous snapshot. The graph is
// serialized in the repository's text format — the same bytes POST /graph
// accepts — so a snapshot is also a portable export.

const (
	snapMagic = "GPMSNAP1"
	snapGlob  = "snap-*.gpsnap"
)

func snapName(lsn uint64) string { return fmt.Sprintf("snap-%016d.gpsnap", lsn) }

// WriteSnapshot checkpoints the state (graph g and registered patterns
// pats) as of commit sequence seq, covering every record appended so far.
// On success, segments fully covered by the checkpoint and older snapshot
// files are deleted. The journal does not retain g. A no-op for
// memory-only journals.
func (j *Journal) WriteSnapshot(seq uint64, g *graph.Graph, pats []PatternDef) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return ErrClosed
	}
	j.commitsSinceSnap = 0
	if j.dir == "" {
		return nil
	}
	defer j.met.snapMS.ObserveSince(time.Now())
	if err := j.writeSnapshotLocked(seq, g, pats); err != nil {
		j.lastErr = err
		return err
	}
	if err := j.compact(); err != nil {
		j.lastErr = err
		return err
	}
	return nil
}

// writeSnapshotLocked writes the snapshot file for the current LSN. Called
// with j.mu held (or from Open/Reset before the journal is shared).
func (j *Journal) writeSnapshotLocked(seq uint64, g *graph.Graph, pats []PatternDef) error {
	var gtext bytes.Buffer
	if err := g.Write(&gtext); err != nil {
		return err
	}
	payload := make([]byte, 0, len(snapMagic)+gtext.Len()+64)
	payload = append(payload, snapMagic...)
	payload = binary.AppendUvarint(payload, j.lsn)
	payload = binary.AppendUvarint(payload, seq)
	payload = appendBytes(payload, gtext.Bytes())
	payload = binary.AppendUvarint(payload, uint64(len(pats)))
	for _, p := range pats {
		payload = appendBytes(payload, []byte(p.ID))
		payload = appendBytes(payload, []byte(p.Kind))
		payload = appendBytes(payload, p.Def)
		payload = binary.AppendUvarint(payload, p.RegSeq)
	}

	path := filepath.Join(j.dir, snapName(j.lsn))
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(frame(payload)); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	syncDir(j.dir)
	j.snapLSN, j.snapSeq, j.haveSnap = j.lsn, seq, true
	return nil
}

// decodeSnapshot parses a snapshot file's payload.
func decodeSnapshot(payload []byte) (*Snapshot, error) {
	if len(payload) < len(snapMagic) || string(payload[:len(snapMagic)]) != snapMagic {
		return nil, fmt.Errorf("journal: not a snapshot payload")
	}
	d := decoder{b: payload, off: len(snapMagic)}
	snap := &Snapshot{LSN: d.uvarint(), Seq: d.uvarint()}
	gtext := d.bytes()
	if d.err != nil {
		return nil, d.err
	}
	g, err := graph.Read(bytes.NewReader(gtext))
	if err != nil {
		return nil, fmt.Errorf("journal: snapshot graph: %w", err)
	}
	snap.Graph = g
	n := d.uvarint()
	if d.err == nil && n > uint64(len(payload)) {
		return nil, fmt.Errorf("journal: implausible pattern count %d", n)
	}
	for i := uint64(0); i < n && d.err == nil; i++ {
		snap.Patterns = append(snap.Patterns, PatternDef{
			ID:     string(d.bytes()),
			Kind:   string(d.bytes()),
			Def:    append([]byte(nil), d.bytes()...),
			RegSeq: d.uvarint(),
		})
	}
	if d.err != nil {
		return nil, d.err
	}
	return snap, nil
}

// recoverSnapshot loads the newest valid snapshot file into recSnap
// (invalid or torn snapshot files are skipped; older valid ones remain as
// fallbacks until the next compaction).
func (j *Journal) recoverSnapshot() error {
	paths, err := filepath.Glob(filepath.Join(j.dir, snapGlob))
	if err != nil {
		return err
	}
	sort.Sort(sort.Reverse(sort.StringSlice(paths)))
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		var snap *Snapshot
		scanFrames(data, func(payload []byte) bool {
			s, err := decodeSnapshot(payload)
			if err == nil {
				snap = s
			}
			return false // one frame per snapshot file
		})
		if snap == nil {
			continue // torn or corrupt; try the next-older one
		}
		j.recSnap = snap
		j.snapLSN, j.snapSeq, j.haveSnap = snap.LSN, snap.Seq, true
		return nil
	}
	return nil
}

// compact deletes sealed segments fully covered by the latest snapshot and
// all older snapshot files, then recomputes the oldest replayable seq.
// Called with j.mu held, after a successful writeSnapshotLocked.
func (j *Journal) compact() error {
	// Seal the active segment first so it becomes eligible next time and
	// the new snapshot starts a clean segment boundary.
	if j.active != nil && j.active.info.size > 0 {
		if err := j.rotate(); err != nil {
			return err
		}
	}
	kept := j.segs[:0]
	for _, seg := range j.segs {
		if seg != j.activeInfo() && seg.maxLSN <= j.snapLSN {
			os.Remove(seg.path)
			continue
		}
		kept = append(kept, seg)
	}
	j.segs = kept

	snaps, err := filepath.Glob(filepath.Join(j.dir, snapGlob))
	if err != nil {
		return err
	}
	latest := filepath.Join(j.dir, snapName(j.snapLSN))
	for _, p := range snaps {
		if p != latest {
			os.Remove(p)
		}
	}
	j.recomputeOldest()
	return nil
}

func (j *Journal) activeInfo() *segmentInfo {
	if j.active == nil {
		return nil
	}
	return j.active.info
}

// recomputeOldest rederives the oldest replayable commit seq from the
// remaining disk segments and the ring. Called with j.mu held.
func (j *Journal) recomputeOldest() {
	j.haveOldest = false
	for _, seg := range j.segs {
		if seg.hasCommits {
			j.oldestSeq, j.haveOldest = seg.firstSeq, true
			break
		}
	}
	if len(j.ring) > 0 && (!j.haveOldest || j.ring[0].Seq < j.oldestSeq) {
		j.oldestSeq, j.haveOldest = j.ring[0].Seq, true
	}
}

// syncDir fsyncs a directory so a just-renamed file survives power loss.
// Best-effort: some platforms reject directory fsync.
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		d.Sync() //nolint:errcheck // best-effort
		d.Close()
	}
}
