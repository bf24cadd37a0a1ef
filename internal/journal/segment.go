package journal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"

	"gpm/internal/graph"
)

// On-disk record framing, shared by segment files and snapshot files:
//
//	u32 little-endian payload length
//	u32 little-endian CRC-32C (Castagnoli) of the payload
//	payload bytes
//
// A frame whose length runs past the file, whose CRC mismatches, or whose
// payload fails to decode marks the end of the valid prefix — the torn
// tail a crash mid-append leaves behind. Recovery truncates there.
//
// Record payloads:
//
//	u8 type | uvarint lsn | uvarint seq | body
//	body(commit):     uvarint n | n × (u8 op | uvarint from | uvarint to) | [bytes(trace)]
//	body(register):   bytes(id) | bytes(kind) | bytes(def)
//	body(unregister): bytes(id)
//
// where bytes(x) = uvarint len | raw bytes. The commit body's trailing
// trace field (the commit span's W3C traceparent) is written only when
// non-empty and decoded only when payload bytes remain, so records from
// before tracing — and untraced commits — round-trip unchanged.

var crcTable = crc32.MakeTable(crc32.Castagnoli)

const (
	frameHeader    = 8
	maxRecordBytes = 64 << 20 // larger lengths are treated as corruption
	segPattern     = "wal-*.gpwal"
)

func segName(ordinal uint64) string { return fmt.Sprintf("wal-%016d.gpwal", ordinal) }

func appendBytes(buf, b []byte) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(b)))
	return append(buf, b...)
}

func encodeRecord(rec *Record) []byte {
	buf := make([]byte, 0, 64+8*len(rec.Updates))
	buf = append(buf, byte(rec.Type))
	buf = binary.AppendUvarint(buf, rec.LSN)
	buf = binary.AppendUvarint(buf, rec.Seq)
	switch rec.Type {
	case RecCommit:
		buf = binary.AppendUvarint(buf, uint64(len(rec.Updates)))
		for _, up := range rec.Updates {
			buf = append(buf, byte(up.Op))
			buf = binary.AppendUvarint(buf, uint64(up.From))
			buf = binary.AppendUvarint(buf, uint64(up.To))
		}
		if rec.Trace != "" {
			buf = appendBytes(buf, []byte(rec.Trace))
		}
	case RecRegister:
		buf = appendBytes(buf, []byte(rec.ID))
		buf = appendBytes(buf, []byte(rec.Kind))
		buf = appendBytes(buf, rec.Def)
	case RecUnregister:
		buf = appendBytes(buf, []byte(rec.ID))
	}
	return buf
}

// decoder walks a payload; any overrun poisons it and the caller checks err
// once at the end.
type decoder struct {
	b   []byte
	off int
	err error
}

func (d *decoder) u8() byte {
	if d.err != nil || d.off >= len(d.b) {
		d.fail()
		return 0
	}
	v := d.b[d.off]
	d.off++
	return v
}

func (d *decoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b[d.off:])
	if n <= 0 {
		d.fail()
		return 0
	}
	d.off += n
	return v
}

func (d *decoder) bytes() []byte {
	n := d.uvarint()
	if d.err != nil || uint64(len(d.b)-d.off) < n {
		d.fail()
		return nil
	}
	v := d.b[d.off : d.off+int(n)]
	d.off += int(n)
	return v
}

func (d *decoder) fail() {
	if d.err == nil {
		d.err = fmt.Errorf("journal: truncated payload")
	}
}

func decodeRecord(payload []byte) (Record, error) {
	d := decoder{b: payload}
	rec := Record{Type: RecordType(d.u8())}
	rec.LSN = d.uvarint()
	rec.Seq = d.uvarint()
	switch rec.Type {
	case RecCommit:
		n := d.uvarint()
		if d.err == nil && n > uint64(len(payload)) { // each update is >= 3 bytes
			return rec, fmt.Errorf("journal: implausible update count %d", n)
		}
		if n > 0 && d.err == nil {
			rec.Updates = make([]graph.Update, 0, n)
			for i := uint64(0); i < n; i++ {
				op := graph.Op(d.u8())
				from := d.uvarint()
				to := d.uvarint()
				rec.Updates = append(rec.Updates, graph.Update{Op: op, From: int(from), To: int(to)})
			}
		}
		if d.err == nil && d.off < len(d.b) {
			rec.Trace = string(d.bytes())
		}
	case RecRegister:
		rec.ID = string(d.bytes())
		rec.Kind = string(d.bytes())
		rec.Def = append([]byte(nil), d.bytes()...)
	case RecUnregister:
		rec.ID = string(d.bytes())
	default:
		return rec, fmt.Errorf("journal: unknown record type %d", rec.Type)
	}
	if d.err != nil {
		return rec, d.err
	}
	return rec, nil
}

// frame wraps a payload in the length+CRC header.
func frame(payload []byte) []byte {
	out := make([]byte, frameHeader, frameHeader+len(payload))
	binary.LittleEndian.PutUint32(out[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(out[4:8], crc32.Checksum(payload, crcTable))
	return append(out, payload...)
}

// scanFrames walks the framed records in data, calling fn for each valid
// payload, and returns the byte offset of the end of the valid prefix —
// anything after it is a torn tail.
func scanFrames(data []byte, fn func(payload []byte) bool) int64 {
	off := 0
	for {
		if len(data)-off < frameHeader {
			return int64(off)
		}
		n := int(binary.LittleEndian.Uint32(data[off : off+4]))
		sum := binary.LittleEndian.Uint32(data[off+4 : off+8])
		if n > maxRecordBytes || len(data)-off-frameHeader < n {
			return int64(off)
		}
		payload := data[off+frameHeader : off+frameHeader+n]
		if crc32.Checksum(payload, crcTable) != sum {
			return int64(off)
		}
		if !fn(payload) {
			return int64(off) // the rejected frame is not part of the valid prefix
		}
		off += frameHeader + n
	}
}

// segmentInfo describes one segment file.
type segmentInfo struct {
	path       string
	ordinal    uint64
	size       int64
	maxLSN     uint64 // largest record LSN in the segment (0 = empty)
	firstSeq   uint64 // first and last commit seq, valid iff hasCommits
	lastSeq    uint64
	hasCommits bool
}

// segmentWriter is the active segment's append handle. Appends are written
// straight through (one write syscall per record) so a process crash
// never loses an acknowledged append; fsync happens on sync/close.
type segmentWriter struct {
	f      *os.File
	info   *segmentInfo
	failed bool // a failed write could not be rolled back; no more appends
}

func (w *segmentWriter) append(rec *Record) error {
	if w.failed {
		return fmt.Errorf("journal: segment %s unusable after a failed write", w.info.path)
	}
	framed := frame(encodeRecord(rec))
	if len(framed)-frameHeader > maxRecordBytes {
		// Enforced at write time because recovery treats an over-limit
		// length as corruption: acknowledging such a record would destroy
		// it (and everything after it) on the next Open.
		return fmt.Errorf("journal: record of %d bytes exceeds the %d-byte limit", len(framed)-frameHeader, maxRecordBytes)
	}
	if _, err := w.f.Write(framed); err != nil {
		// A short write may have left a partial frame after the last
		// record boundary; roll the file back so a later successful
		// append can never land beyond garbage (recovery would truncate
		// at the garbage and silently drop those acknowledged records).
		if terr := w.f.Truncate(w.info.size); terr != nil {
			w.failed = true
		} else if _, serr := w.f.Seek(w.info.size, io.SeekStart); serr != nil {
			w.failed = true
		}
		return err
	}
	w.info.size += int64(len(framed))
	w.info.maxLSN = rec.LSN
	if rec.Type == RecCommit {
		if !w.info.hasCommits {
			w.info.firstSeq, w.info.hasCommits = rec.Seq, true
		}
		w.info.lastSeq = rec.Seq
	}
	return nil
}

func (w *segmentWriter) sync() error { return w.f.Sync() }

func (w *segmentWriter) close() error {
	if err := w.f.Sync(); err != nil {
		w.f.Close()
		return err
	}
	return w.f.Close()
}

// Open opens (or creates) a durable journal in dir and recovers its state:
// the latest valid snapshot, the record tail after it, the commit ring,
// and head LSN/seq. A torn tail record is truncated away; recovery stops
// at the last valid record. Appending continues in a fresh segment.
func Open(dir string, options ...Option) (*Journal, error) {
	j := New(options...)
	j.dir = dir
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	if err := j.recoverSnapshot(); err != nil {
		return nil, err
	}
	if err := j.recoverSegments(); err != nil {
		return nil, err
	}
	if j.haveSnap {
		if j.snapLSN > j.lsn {
			j.lsn = j.snapLSN
		}
		if j.snapSeq > j.headSeq {
			j.headSeq = j.snapSeq
		}
	}
	if err := j.rotate(); err != nil {
		return nil, err
	}
	return j, nil
}

// recoverSegments reads every segment in order, truncating torn tails and
// rebuilding the ring, the recovered tail, and the seq/lsn heads.
//
// Record LSNs are dense, so a torn or corrupt segment shows up as a gap
// in the LSN chain at the next accepted record. A gap entirely covered by
// the latest snapshot (every missing LSN <= snapLSN) is harmless — the
// snapshot replaces those records — and recovery continues into the later
// segments, which may hold acknowledged post-snapshot commits that must
// not be destroyed. A gap that reaches past the snapshot means the
// replayable tail ends there: later records must not replay over missing
// history, so the remaining segments are dropped and the loss is surfaced
// in Stats.LastError.
func (j *Journal) recoverSegments() error {
	paths, err := filepath.Glob(filepath.Join(j.dir, segPattern))
	if err != nil {
		return err
	}
	sort.Strings(paths)
	var lastLSN uint64
	dropRest := false
	for _, path := range paths {
		var ord uint64
		if _, err := fmt.Sscanf(filepath.Base(path), "wal-%d.gpwal", &ord); err != nil {
			continue // foreign file
		}
		if dropRest {
			os.Remove(path)
			continue
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		info := &segmentInfo{path: path, ordinal: ord}
		var decodeErr, gapErr error
		end := scanFrames(data, func(payload []byte) bool {
			rec, err := decodeRecord(payload)
			if err != nil {
				decodeErr = err
				return false
			}
			if rec.LSN > j.snapLSN {
				// Past the snapshot, the chain must be contiguous from
				// max(lastLSN, snapLSN); anything missing in between is
				// unrecoverable history.
				prev := lastLSN
				if j.snapLSN > prev {
					prev = j.snapLSN
				}
				if rec.LSN != prev+1 {
					gapErr = fmt.Errorf("journal: records %d..%d lost beyond snapshot (LSN %d); later records dropped",
						prev+1, rec.LSN-1, j.snapLSN)
					return false
				}
			}
			lastLSN = rec.LSN
			j.ingestRecovered(rec, info)
			return true
		})
		if gapErr != nil {
			// The chain check fires on a segment's first record (within a
			// file, accepted records are contiguous), so nothing from this
			// file was ingested: drop it and everything after.
			j.lastErr = gapErr
			os.Remove(path)
			dropRest = true
			continue
		}
		if decodeErr != nil || end < int64(len(data)) {
			// Torn or corrupt tail: keep the valid prefix; whether later
			// segments survive is decided by the LSN chain above.
			if err := os.Truncate(path, end); err != nil {
				return err
			}
		}
		info.size = end
		if info.maxLSN == 0 && info.size == 0 {
			os.Remove(path)
			continue
		}
		j.segs = append(j.segs, info)
		if info.ordinal >= j.nextOrdinal {
			j.nextOrdinal = info.ordinal + 1
		}
	}
	return nil
}

// ingestRecovered folds one recovered record into the journal's in-memory
// state: lsn/seq heads, the ring, segment metadata, and the post-snapshot
// tail used by RecoveredState.
func (j *Journal) ingestRecovered(rec Record, info *segmentInfo) {
	if rec.LSN > j.lsn {
		j.lsn = rec.LSN
	}
	info.maxLSN = rec.LSN
	if rec.Type == RecCommit {
		if rec.Seq > j.headSeq {
			j.headSeq = rec.Seq
		}
		if !info.hasCommits {
			info.firstSeq, info.hasCommits = rec.Seq, true
		}
		info.lastSeq = rec.Seq
		if !j.haveOldest {
			j.oldestSeq, j.haveOldest = rec.Seq, true
		}
		j.commitCount++
		j.ring = append(j.ring, Commit{Seq: rec.Seq, Updates: rec.Updates, Trace: rec.Trace})
		j.trimRingRecovery()
	}
	if !j.haveSnap || rec.LSN > j.snapLSN {
		j.recTail = append(j.recTail, rec)
	}
}

// trimRingRecovery is trimRing for the durable recovery path: eviction
// never moves oldestSeq because the evicted commits remain on disk.
func (j *Journal) trimRingRecovery() {
	if over := len(j.ring) - j.ringCap; over > 0 {
		j.ring = append(j.ring[:0], j.ring[over:]...)
	}
}

// writeDurable appends rec to the active segment (durable journals only),
// rotating first when the active segment is full.
func (j *Journal) writeDurable(rec *Record) error {
	if j.dir == "" {
		return nil
	}
	if j.active == nil {
		return ErrClosed
	}
	defer j.met.appendMS.ObserveSince(time.Now())
	if j.active.info.size >= j.segBytes {
		if err := j.rotate(); err != nil {
			return err
		}
	}
	return j.active.append(rec)
}

// rotate seals the active segment (fsync) and starts a new one.
func (j *Journal) rotate() error {
	if j.active != nil {
		if err := j.active.close(); err != nil {
			return err
		}
		j.active = nil
	}
	info := &segmentInfo{path: filepath.Join(j.dir, segName(j.nextOrdinal)), ordinal: j.nextOrdinal}
	j.nextOrdinal++
	f, err := os.OpenFile(info.path, os.O_CREATE|os.O_WRONLY|os.O_EXCL, 0o644)
	if err != nil {
		return err
	}
	j.segs = append(j.segs, info)
	j.active = &segmentWriter{f: f, info: info}
	return nil
}

// commitsFromDisk scans the segment files for commits in (fromSeq, head].
// Commit sequences increase with LSN, so segments whose last commit is at
// or below fromSeq are skipped without touching the disk — the scan cost
// is proportional to the requested range, not the whole log. Called with
// j.mu held; the active segment needs no flush because appends are
// unbuffered.
func (j *Journal) commitsFromDisk(fromSeq uint64) ([]Commit, error) {
	out := make([]Commit, 0, j.headSeq-fromSeq)
	for _, seg := range j.segs {
		if !seg.hasCommits || seg.lastSeq <= fromSeq {
			continue
		}
		data, err := os.ReadFile(seg.path)
		if err != nil {
			return nil, err
		}
		var decErr error
		scanFrames(data, func(payload []byte) bool {
			rec, err := decodeRecord(payload)
			if err != nil {
				decErr = err
				return false
			}
			if rec.Type == RecCommit && rec.Seq > fromSeq {
				out = append(out, Commit{Seq: rec.Seq, Updates: rec.Updates, Trace: rec.Trace})
			}
			return true
		})
		if decErr != nil {
			return nil, decErr
		}
	}
	if len(out) == 0 || out[0].Seq != fromSeq+1 {
		return nil, fmt.Errorf("%w: want seq > %d, disk starts later", ErrCompacted, fromSeq)
	}
	return out, nil
}

// resetDiskLocked wipes all segments and snapshots and re-seeds the
// directory with a snapshot of g at seq 0 plus a fresh active segment.
// Called with j.mu held.
func (j *Journal) resetDiskLocked(g *graph.Graph) error {
	if j.active != nil {
		j.active.close() //nolint:errcheck // the file is deleted next
		j.active = nil
	}
	for _, glob := range []string{segPattern, snapGlob} {
		paths, err := filepath.Glob(filepath.Join(j.dir, glob))
		if err != nil {
			return err
		}
		for _, p := range paths {
			if err := os.Remove(p); err != nil {
				return err
			}
		}
	}
	j.segs = nil
	j.nextOrdinal = 1
	j.snapLSN, j.snapSeq, j.haveSnap = 0, 0, false
	if err := j.writeSnapshotLocked(0, g, nil); err != nil {
		return err
	}
	return j.rotate()
}
