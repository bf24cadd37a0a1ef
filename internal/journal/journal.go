// Package journal implements the durable commit log of the continuous-query
// subsystem: an append-only record of everything that defines a registry's
// state over time — one commit record per committed sequence number carrying
// the net (post-coalescing) update batch ΔG, plus meta records for pattern
// registrations and unregistrations. Materializing the commit stream is the
// standard move of incremental view maintenance: with the history durable
// and replayable, a disconnected subscriber can resume from the sequence it
// last saw instead of re-snapshotting, a crashed server can recover its
// graph and standing patterns by replaying the tail over the latest
// snapshot, and a follower registry can be bootstrapped from snapshot +
// journal alone (the prerequisite for sharding the registry across
// processes).
//
// A Journal has two retention layers:
//
//   - An in-memory ring of the most recent commits (always on), serving hot
//     Commits calls without touching disk. A memory-only journal
//     (New) has just this layer; replay reaches back at most the ring size.
//   - Optional on-disk segment files (Open): every record is appended to
//     the active segment as a length-prefixed, CRC-checksummed frame;
//     segments rotate at a size threshold; periodic snapshots of the full
//     state (graph + registered patterns at a sequence number) bound
//     recovery time and let fully-covered segments be deleted (log
//     compaction).
//
// Durability model: appends are flushed to the OS per record (a process
// crash loses nothing), fsynced on Sync, Close, segment rotation and
// snapshot writes (a machine crash loses at most the records since the
// last fsync). Torn tail records — a crash mid-append — are detected by
// the CRC/length framing on Open and truncated away: recovery stops at the
// last valid record and appending continues from there.
//
// The journal is safe for concurrent use by one appender and any number of
// readers (all methods lock internally).
package journal

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"gpm/internal/graph"
	"gpm/internal/obs"
)

// Sentinel errors.
var (
	// ErrCompacted reports a replay request reaching further back than the
	// journal retains (evicted from the ring and compacted away on disk, or
	// predating the journal). The caller must fall back to a snapshot.
	ErrCompacted = errors.New("journal: requested commits compacted away")
	// ErrClosed reports an operation on a closed journal.
	ErrClosed = errors.New("journal: closed")
)

// RecordType discriminates journal records.
type RecordType uint8

const (
	// RecCommit is one committed batch: Seq and the net ΔG.
	RecCommit RecordType = 1
	// RecRegister is a pattern registration: ID, Kind and the pattern's
	// text-format definition, at registry sequence Seq.
	RecRegister RecordType = 2
	// RecUnregister is a pattern unregistration: ID at registry seq Seq.
	RecUnregister RecordType = 3
)

// Record is one journal entry. LSN is the journal-assigned log sequence
// number (monotonic over all records, including meta records); Seq is the
// registry commit sequence the record carries (the commit's own seq for
// RecCommit, the head seq at append time for meta records).
type Record struct {
	Type RecordType
	LSN  uint64
	Seq  uint64

	Updates []graph.Update // RecCommit: the net update batch
	Trace   string         // RecCommit: W3C traceparent of the commit span, "" when unsampled

	ID   string // RecRegister / RecUnregister
	Kind string // RecRegister
	Def  []byte // RecRegister: pattern text-format definition
}

// Commit is one committed batch as served by Commits: the sequence
// number and the net effective ΔG the engines were fanned. Updates is
// shared with the journal's ring — callers must not mutate it. Trace is
// the W3C traceparent of the commit span that produced the batch ("" when
// the commit was not sampled), so replicas and resumed tails can continue
// the same trace.
type Commit struct {
	Seq     uint64
	Updates []graph.Update
	Trace   string
}

// PatternDef is one standing pattern inside a snapshot: its id, engine
// kind, text-format definition, and the commit seq it was registered at
// (so a resume reaching back before the snapshot still knows the pattern
// existed then).
type PatternDef struct {
	ID     string
	Kind   string
	Def    []byte
	RegSeq uint64
}

// Snapshot is a full-state checkpoint: the graph and registered patterns
// as of commit sequence Seq, covering every record with LSN <= LSN.
type Snapshot struct {
	LSN      uint64
	Seq      uint64
	Graph    *graph.Graph
	Patterns []PatternDef
}

// Stats is a point-in-time journal snapshot for operators: retention
// ("from OldestSeq to HeadSeq"), disk footprint, and checkpoint progress.
type Stats struct {
	// Durable reports whether the journal persists to disk (Open) or is
	// memory-only (New).
	Durable bool `json:"durable"`
	// Commits counts commit records appended over the journal's lifetime,
	// including records recovered from disk on Open.
	Commits uint64 `json:"commits"`
	// Records is the head LSN: all records ever appended (commits + meta).
	Records uint64 `json:"records"`
	// Segments and Bytes describe the on-disk segment files (0 for
	// memory-only journals).
	Segments int   `json:"segments"`
	Bytes    int64 `json:"bytes"`
	// OldestSeq is the oldest commit sequence still replayable (ring or
	// disk); replay from any fromSeq >= OldestSeq-1 succeeds. 0 with
	// HeadSeq 0 means nothing has been committed yet.
	OldestSeq uint64 `json:"oldest_seq"`
	// HeadSeq is the newest committed sequence the journal has seen.
	HeadSeq uint64 `json:"head_seq"`
	// SnapshotSeq is the commit sequence of the latest durable snapshot (0
	// when none has been written).
	SnapshotSeq uint64 `json:"snapshot_seq"`
	// LastError surfaces the most recent append/snapshot failure (disk
	// full, permission), empty when healthy.
	LastError string `json:"last_error,omitempty"`
	// AppendMS, FsyncMS and SnapshotMS are disk-latency snapshots (record
	// appends, active-segment fsyncs, snapshot checkpoints), present only
	// once the corresponding path has run at least once. Milliseconds.
	AppendMS   *obs.HistSnapshot `json:"append_ms,omitempty"`
	FsyncMS    *obs.HistSnapshot `json:"fsync_ms,omitempty"`
	SnapshotMS *obs.HistSnapshot `json:"snapshot_ms,omitempty"`
}

// Option configures a Journal.
type Option func(*Journal)

// WithRing sets how many recent commits stay in the in-memory ring for
// hot replay (default 4096; n <= 0 restores the default).
func WithRing(n int) Option {
	return func(j *Journal) {
		if n > 0 {
			j.ringCap = n
		}
	}
}

// WithSegmentBytes sets the size threshold at which the active segment is
// sealed and a new one started (default 4 MiB).
func WithSegmentBytes(n int64) Option {
	return func(j *Journal) {
		if n > 0 {
			j.segBytes = n
		}
	}
}

// WithSnapshotEvery makes SnapshotDue report true every n commits, the
// registry's cue to write a checkpoint (default 1024; 0 disables automatic
// snapshots — WriteSnapshot still works when called explicitly).
func WithSnapshotEvery(n uint64) Option {
	return func(j *Journal) { j.snapEvery = n }
}

// Journal is the commit log. Construct with New (memory-only) or Open
// (durable).
type Journal struct {
	mu        sync.Mutex
	dir       string // "" = memory-only
	ringCap   int
	segBytes  int64
	snapEvery uint64

	ring []Commit // recent commits, oldest first

	lsn              uint64 // last assigned record LSN
	headSeq          uint64 // newest committed seq seen
	oldestSeq        uint64 // oldest replayable commit seq (valid iff haveOldest)
	haveOldest       bool
	commitCount      uint64
	commitsSinceSnap uint64

	segs        []*segmentInfo // sealed + active segments, in order; active last
	active      *segmentWriter
	nextOrdinal uint64

	snapLSN  uint64 // latest snapshot coverage
	snapSeq  uint64
	haveSnap bool

	// Recovered state held from Open until RecoveredState hands it off.
	recSnap *Snapshot
	recTail []Record

	met *jmetrics // disk-latency instruments, see metrics.go

	closed       bool
	lastErr      error
	appendFailed error // sticky: a lost record must never be followed by another
}

// New returns a memory-only journal: commits are retained in the ring
// only, so replay reaches back at most WithRing commits and nothing
// survives the process.
func New(options ...Option) *Journal {
	j := &Journal{ringCap: 4096, segBytes: 4 << 20, snapEvery: 1024, met: newJMetrics(obs.Default())}
	for _, o := range options {
		o(j)
	}
	return j
}

// AppendCommit appends one commit record: seq and the net update batch the
// registry fanned out. The journal retains ups (callers must not mutate
// the slice afterwards). The write is flushed to the OS before returning;
// call Sync for an fsync.
//
// Sequences must be contiguous: once an append fails (disk full), the
// owner's sequence moves on but the journal's head does not, and every
// later append is rejected here rather than recorded past a gap — a
// gapped log would let Commits/Recover silently skip a commit. The journal
// serves its intact prefix until the process restarts from it.
func (j *Journal) AppendCommit(seq uint64, ups []graph.Update) error {
	return j.AppendCommitTrace(seq, ups, "")
}

// AppendCommitTrace is AppendCommit carrying the commit span's W3C
// traceparent, persisted on the record so replay and follower bootstrap
// can continue the same trace ("" records no trace).
func (j *Journal) AppendCommitTrace(seq uint64, ups []graph.Update, trace string) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return ErrClosed
	}
	if j.appendFailed != nil {
		return fmt.Errorf("journal: appends stopped after a failed write: %w", j.appendFailed)
	}
	if j.headSeq != 0 && seq != j.headSeq+1 {
		err := fmt.Errorf("journal: commit seq %d does not follow head %d (an earlier append failed?); journaling stopped", seq, j.headSeq)
		j.lastErr = err
		return err
	}
	j.lsn++
	rec := Record{Type: RecCommit, LSN: j.lsn, Seq: seq, Updates: ups, Trace: trace}
	if err := j.writeDurable(&rec); err != nil {
		j.lsn-- // the failed frame was rolled back (or the segment poisoned)
		j.lastErr = err
		j.appendFailed = err
		return err
	}
	j.headSeq = seq
	if !j.haveOldest {
		j.oldestSeq, j.haveOldest = seq, true
	}
	j.ring = append(j.ring, Commit{Seq: seq, Updates: ups, Trace: trace})
	j.trimRing()
	j.commitCount++
	j.commitsSinceSnap++
	return nil
}

// AppendRegister appends a pattern-registration meta record: the pattern's
// id, resolved engine kind and text-format definition, effective after
// commit seq.
func (j *Journal) AppendRegister(seq uint64, id, kind string, def []byte) error {
	return j.appendMeta(Record{Type: RecRegister, Seq: seq, ID: id, Kind: kind, Def: def})
}

// AppendUnregister appends a pattern-unregistration meta record.
func (j *Journal) AppendUnregister(seq uint64, id string) error {
	return j.appendMeta(Record{Type: RecUnregister, Seq: seq, ID: id})
}

func (j *Journal) appendMeta(rec Record) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return ErrClosed
	}
	if j.appendFailed != nil {
		return fmt.Errorf("journal: appends stopped after a failed write: %w", j.appendFailed)
	}
	j.lsn++
	rec.LSN = j.lsn
	if err := j.writeDurable(&rec); err != nil {
		j.lsn--
		j.lastErr = err
		j.appendFailed = err
		return err
	}
	return nil
}

// Broken reports why the journal can no longer accept appends: the sticky
// append-failure (a lost record must never be followed by another), or
// ErrClosed after Close. It returns nil while the journal is healthy —
// the readiness condition gpserve's /v1/readyz probes.
func (j *Journal) Broken() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return ErrClosed
	}
	if j.appendFailed != nil {
		return fmt.Errorf("journal: appends stopped after a failed write: %w", j.appendFailed)
	}
	return nil
}

// trimRing evicts the oldest ring entries beyond capacity and rederives
// the oldest replayable seq: a memory-only journal loses replayability
// past the ring, a durable one falls back to whatever the (possibly
// compacted) segments still hold.
func (j *Journal) trimRing() {
	if over := len(j.ring) - j.ringCap; over > 0 {
		// Copy down instead of re-slicing so evicted batches are freed.
		j.ring = append(j.ring[:0], j.ring[over:]...)
		j.recomputeOldest()
	}
}

// Commits returns the committed batches with sequence numbers in
// (fromSeq, head], oldest first — "everything after fromSeq". It serves
// from the ring when possible and falls back to scanning disk segments.
// ErrCompacted reports that the range reaches further back than the
// journal retains. The returned Updates slices are shared — do not mutate.
func (j *Journal) Commits(fromSeq uint64) ([]Commit, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if fromSeq >= j.headSeq {
		return nil, nil
	}
	if !j.haveOldest || fromSeq < j.oldestSeq-1 {
		return nil, fmt.Errorf("%w: want seq > %d, oldest retained is %d", ErrCompacted, fromSeq, j.oldestSeq)
	}
	// Hot path: the ring covers the whole range.
	if len(j.ring) > 0 && j.ring[0].Seq <= fromSeq+1 {
		out := make([]Commit, 0, j.headSeq-fromSeq)
		for _, c := range j.ring {
			if c.Seq > fromSeq {
				out = append(out, c)
			}
		}
		return out, nil
	}
	if j.dir == "" {
		return nil, fmt.Errorf("%w: want seq > %d, ring starts at %d", ErrCompacted, fromSeq, j.oldestSeq)
	}
	return j.commitsFromDisk(fromSeq)
}

// RecoveredState hands off what Open found on disk: the latest valid
// snapshot (nil when none) and the tail of records appended after it, in
// append order. The caller takes ownership of the snapshot's Graph — the
// journal drops its reference, so this returns non-nil at most once.
func (j *Journal) RecoveredState() (*Snapshot, []Record) {
	j.mu.Lock()
	defer j.mu.Unlock()
	snap, tail := j.recSnap, j.recTail
	j.recSnap, j.recTail = nil, nil
	return snap, tail
}

// SnapshotDue reports whether enough commits accumulated since the last
// snapshot that the owner should checkpoint (WriteSnapshot). Always false
// for memory-only journals and when WithSnapshotEvery(0) disabled it.
func (j *Journal) SnapshotDue() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.dir != "" && j.snapEvery > 0 && j.commitsSinceSnap >= j.snapEvery
}

// HeadSeq returns the newest committed sequence the journal has recorded.
func (j *Journal) HeadSeq() uint64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.headSeq
}

// Stats returns the journal's operator counters.
func (j *Journal) Stats() Stats {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := Stats{
		Durable: j.dir != "",
		Commits: j.commitCount,
		Records: j.lsn,
		HeadSeq: j.headSeq,
	}
	if j.haveOldest {
		st.OldestSeq = j.oldestSeq
	}
	if j.haveSnap {
		st.SnapshotSeq = j.snapSeq
	}
	for _, s := range j.segs {
		st.Segments++
		st.Bytes += s.size
	}
	if j.lastErr != nil {
		st.LastError = j.lastErr.Error()
	}
	for _, t := range []struct {
		h   *obs.Histogram
		dst **obs.HistSnapshot
	}{
		{j.met.appendMS, &st.AppendMS},
		{j.met.fsyncMS, &st.FsyncMS},
		{j.met.snapMS, &st.SnapshotMS},
	} {
		if s := t.h.Snapshot(); s.Count > 0 {
			snap := s
			*t.dst = &snap
		}
	}
	return st
}

// Sync flushes buffered appends and fsyncs the active segment. A no-op
// for memory-only journals.
func (j *Journal) Sync() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return ErrClosed
	}
	if j.active == nil {
		return nil
	}
	defer j.met.fsyncMS.ObserveSince(time.Now())
	if err := j.active.sync(); err != nil {
		j.lastErr = err
		return err
	}
	return nil
}

// Close flushes, fsyncs and closes the journal; further appends fail.
// Safe to call more than once.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return nil
	}
	j.closed = true
	if j.active == nil {
		return nil
	}
	err := j.active.close()
	j.active = nil
	if err != nil {
		j.lastErr = err
	}
	return err
}

// Bootstrap seeds a brand-new durable journal with a snapshot of the
// initial graph at sequence 0, so recovery can replay commits over it. A
// no-op for memory-only journals and for journals that already hold any
// state (a snapshot or records) — it never destroys history, unlike
// Reset. The registry calls this when a journal is attached at
// construction.
func (j *Journal) Bootstrap(g *graph.Graph) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return ErrClosed
	}
	if j.dir == "" || j.haveSnap || j.lsn > 0 || j.headSeq > 0 {
		return nil
	}
	if err := j.writeSnapshotLocked(0, g, nil); err != nil {
		j.lastErr = err
		return err
	}
	return nil
}

// Reset wipes the journal — ring, segments and snapshots — and restarts it
// at sequence 0 over g: the "new world" of a graph load. For durable
// journals the new graph is immediately checkpointed so a crash right
// after Reset still recovers it. The journal retains no reference to g.
func (j *Journal) Reset(g *graph.Graph) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return ErrClosed
	}
	j.ring = j.ring[:0]
	j.lsn, j.headSeq, j.oldestSeq, j.haveOldest = 0, 0, 0, false
	j.commitCount, j.commitsSinceSnap = 0, 0
	j.recSnap, j.recTail = nil, nil
	j.appendFailed = nil // a reset is a new world; appends may resume
	if j.dir == "" {
		return nil
	}
	if err := j.resetDiskLocked(g); err != nil {
		j.lastErr = err
		return err
	}
	return nil
}
