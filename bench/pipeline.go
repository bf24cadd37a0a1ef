package main

import (
	"fmt"
	"os"
	"sync"
	"time"

	"gpm"
)

// subscriber is the consumer end of one match-delta stream: it stamps
// every event on receipt and checks that sequences arrive without a gap.
type subscriber struct {
	mu   sync.Mutex
	log  []recvRec
	last uint64
	gaps []string
}

func (sb *subscriber) note(seq uint64, published time.Time) {
	now := time.Now()
	sb.mu.Lock()
	if seq != sb.last+1 {
		sb.gaps = append(sb.gaps, fmt.Sprintf("stream jumped from seq %d to %d", sb.last, seq))
	}
	sb.last = seq
	sb.log = append(sb.log, recvRec{seq: seq, at: now, published: published})
	sb.mu.Unlock()
}

func (sb *subscriber) lastSeq() uint64 {
	sb.mu.Lock()
	defer sb.mu.Unlock()
	return sb.last
}

// drainLog hands over the events received since the last call.
func (sb *subscriber) drainLog() []recvRec {
	sb.mu.Lock()
	defer sb.mu.Unlock()
	log := sb.log
	sb.log = nil
	return log
}

// drainGaps hands over the sequence gaps seen since the last call.
func (sb *subscriber) drainGaps() []string {
	sb.mu.Lock()
	defer sb.mu.Unlock()
	gaps := sb.gaps
	sb.gaps = nil
	return gaps
}

// waitFor polls cond every millisecond until it holds or the deadline
// passes. It is used only outside timed windows.
func waitFor(what string, timeout time.Duration, cond func() bool) error {
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			return fmt.Errorf("timed out after %v waiting for %s", timeout, what)
		}
		time.Sleep(time.Millisecond)
	}
	return nil
}

// pipelineSUT is the system of pipeline-fanout: an in-process registry over
// a durable journal with many overlapping standing patterns, written by
// several concurrent callers of Registry.Apply and read by subscribers and
// Result calls. There is no HTTP: coalescing, the discrimination network,
// the journal and the publish path do the work.
type pipelineSUT struct {
	e    *env
	tr   *tracer
	size sizing
	pats []patternSpec
	dir  string
	j    *gpm.Journal
	reg  *gpm.Registry
	subs []*subscriber
	wg   sync.WaitGroup // the subscribers' goroutines

	mu      sync.Mutex
	commits map[uint64]commitInfo // the latest commitsKept commits, by seq
	sum     gpm.CommitTiming      // stage sums over the traced slices
	nCommit int
	nUpdate int

	registerMS float64 // Register calls of the network-backed (sim, bsim) patterns
}

// commitsKept is how many commits' timings stay around for their ops to
// pick up; a commit's callers read it right after it, so a few would do.
const commitsKept = 64

type commitInfo struct {
	end time.Time
	ct  gpm.CommitTiming
}

// fanoutSubscriptions is how many of the standing patterns have a
// subscriber attached.
const fanoutSubscriptions = 8

func (s *pipelineSUT) journalOptions() []gpm.JournalOption {
	return []gpm.JournalOption{gpm.JournalSnapshotEvery(uint64(s.size.SnapshotEvery))}
}

func setupPipeline(e *env, g *gpm.Graph, pats []patternSpec, size sizing, tr *tracer) (sut, error) {
	dir, err := e.subdir("journal")
	if err != nil {
		return nil, err
	}
	s := &pipelineSUT{e: e, tr: tr, size: size, pats: pats, dir: dir, commits: make(map[uint64]commitInfo)}
	if s.j, err = gpm.OpenJournal(dir, s.journalOptions()...); err != nil {
		return nil, err
	}
	s.reg = gpm.NewRegistryWithJournal(g, s.j, gpm.WithCommitObserver(s.observe))
	for _, ps := range pats {
		t0 := time.Now()
		if err := s.reg.Register(ps.id, ps.p, ps.kind); err != nil {
			s.close()
			return nil, fmt.Errorf("registering %s: %w", ps.id, err)
		}
		if ps.kind != gpm.KindIso {
			s.registerMS += ms(time.Since(t0))
		}
	}
	if err := s.subscribe(); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

// subscribe attaches subscribers to patterns spread over the pattern list.
func (s *pipelineSUT) subscribe() error {
	s.subs = nil
	step := max(1, len(s.pats)/fanoutSubscriptions)
	for i := 0; i < len(s.pats) && len(s.subs) < fanoutSubscriptions; i += step {
		sub, err := s.reg.Subscribe(s.pats[i].id)
		if err != nil {
			return fmt.Errorf("subscribing to %s: %w", s.pats[i].id, err)
		}
		sb := &subscriber{last: sub.Seq}
		s.subs = append(s.subs, sb)
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			for ev := range sub.C { // closes when the registry does
				sb.note(ev.Seq, ev.At)
			}
		}()
	}
	return nil
}

// observe is the registry's commit observer. It runs on the writer
// goroutine, before the callers of the commit are released, so an op finds
// its commit's timing by sequence as soon as Apply returns.
func (s *pipelineSUT) observe(ct gpm.CommitTiming) {
	if !s.tr.active() {
		return
	}
	now := time.Now()
	s.mu.Lock()
	s.commits[ct.Seq] = commitInfo{now, ct}
	delete(s.commits, ct.Seq-commitsKept)
	s.sum.Validate += ct.Validate
	s.sum.Network += ct.Network
	s.sum.Repair += ct.Repair
	s.sum.Journal += ct.Journal
	s.sum.Publish += ct.Publish
	s.sum.Total += ct.Total
	s.nCommit++
	s.nUpdate += ct.Updates
	s.mu.Unlock()
}

func (s *pipelineSUT) apply(op int, ups []gpm.Update) (uint64, error) {
	start := time.Now()
	root := s.tr.start("op", benchLayer, op, -1, len(ups))
	seq, err := s.reg.Apply(ups)
	s.tr.end(root)
	if root >= 0 && err == nil {
		s.commitSpans(op, root, start, seq)
	}
	return seq, err
}

// commitSpans rebuilds, under an op's span, the time the op waited for the
// writer and the stages of the commit that carried it. The observer gives
// durations, not instants: the commit ended when the observer ran and began
// Total earlier. Every
// op of a coalesced commit gets the commit's spans, because every one of
// them waited for all of it.
func (s *pipelineSUT) commitSpans(op, root int, opStart time.Time, seq uint64) {
	s.mu.Lock()
	ci, ok := s.commits[seq]
	s.mu.Unlock()
	if !ok {
		return // committed in a slice that was not traced
	}
	begin := ci.end.Add(-ci.ct.Total)
	if begin.After(opStart) {
		s.tr.add("contq.queue_wait", "contq", op, root, 0, opStart, begin)
	}
	ct := ci.ct
	s.tr.addCommit(op, root, ct.Updates, begin, ci.end,
		[5]time.Duration{ct.Validate, ct.Network, ct.Repair, ct.Journal, ct.Publish})
}

func (s *pipelineSUT) settle(head uint64) error {
	return waitFor(fmt.Sprintf("%d subscribers to reach seq %d", len(s.subs), head), 10*time.Second, func() bool {
		for _, sb := range s.subs {
			if sb.lastSeq() < head {
				return false
			}
		}
		return true
	})
}

func (s *pipelineSUT) result(id string) (gpm.Relation, error) {
	r, ok := s.reg.Result(id)
	if !ok {
		return nil, fmt.Errorf("pattern %s is not registered", id)
	}
	return r, nil
}

// read is the read beside the writes: one Result call on one pattern.
func (s *pipelineSUT) read() error {
	_, err := s.result(s.pats[0].id)
	return err
}

func (s *pipelineSUT) received() (primary, replica [][]recvRec) {
	for _, sb := range s.subs {
		primary = append(primary, sb.drainLog())
	}
	return primary, nil
}

func (s *pipelineSUT) verify() []string {
	var out []string
	for _, sb := range s.subs {
		out = append(out, sb.drainGaps()...)
	}
	if st := s.reg.Stats(); st.PatternsEvicted > 0 {
		out = append(out, fmt.Sprintf("%d patterns evicted after an engine panic", st.PatternsEvicted))
	}
	return out
}

func (s *pipelineSUT) peakRSSMB() (float64, error) { return peakRSSMB(os.Getpid()) }

func (s *pipelineSUT) close() {
	s.reg.Close() // ends the subscriptions, which ends their goroutines
	s.wg.Wait()
	s.j.Close() //nolint:errcheck // the registry already flushed and fsynced it
	if !s.e.keep {
		os.RemoveAll(s.dir)
	}
}

// recover pins the tail, shuts the registry and its journal down, and times
// bringing them back: reopen the journal, then rebuild the registry from
// the latest snapshot plus the tail. The tail is pinned by committing
// until the journal checkpoints and then exactly size.Tail commits more,
// one op per commit, so recovery replays the same number of like-sized
// commits whatever the run did before. Nothing is committed in between, so
// every one of the recoveries replays that same tail.
func (s *pipelineSUT) recover(apply func() error) (time.Duration, error) {
	snap := s.reg.Stats().Journal.SnapshotSeq
	for s.reg.Stats().Journal.SnapshotSeq == snap {
		if err := apply(); err != nil {
			return 0, err
		}
	}
	for s.reg.Seq()-s.reg.Stats().Journal.SnapshotSeq < uint64(s.size.Tail) {
		if err := apply(); err != nil {
			return 0, err
		}
	}
	before := make([]gpm.Relation, len(s.pats))
	for i, ps := range s.pats {
		r, err := s.result(ps.id)
		if err != nil {
			return 0, err
		}
		before[i] = r.Clone()
	}
	head := s.reg.Seq()
	return medianOfRecoveries(func() (time.Duration, error) { return s.restart(before, head) })
}

// restart shuts the registry and its journal down, times bringing them back
// and holds the recovered state to the state before the shutdown.
func (s *pipelineSUT) restart(before []gpm.Relation, head uint64) (time.Duration, error) {
	s.reg.Close()
	s.wg.Wait()
	if err := s.j.Close(); err != nil {
		return 0, fmt.Errorf("closing the journal: %w", err)
	}

	s.tr.enable(true)
	defer s.tr.enable(false)
	t0 := time.Now()
	id := s.tr.start("journal.open", "journal", -1, -1, 0)
	j, err := gpm.OpenJournal(s.dir, s.journalOptions()...)
	s.tr.end(id)
	if err != nil {
		return 0, fmt.Errorf("reopening the journal: %w", err)
	}
	id = s.tr.start("contq.recover", "contq", -1, -1, 0)
	reg, err := gpm.RecoverRegistry(j)
	s.tr.end(id)
	d := time.Since(t0)
	if err != nil {
		j.Close() //nolint:errcheck // already failing
		return d, fmt.Errorf("recovering the registry: %w", err)
	}
	s.j, s.reg = j, reg
	if err := s.subscribe(); err != nil {
		return d, err
	}
	if reg.Seq() != head {
		return d, fmt.Errorf("recovered at seq %d, shut down at %d", reg.Seq(), head)
	}
	for i, ps := range s.pats {
		after, err := s.result(ps.id)
		if err != nil {
			return d, err
		}
		if !sameRelation(after, before[i]) {
			return d, fmt.Errorf("pattern %s: %d pairs after recovery, %d before shutdown", ps.id, after.Size(), before[i].Size())
		}
	}
	return d, nil
}

func (s *pipelineSUT) layers() map[string]float64 {
	out := make(map[string]float64)
	st := s.reg.Stats()
	s.mu.Lock()
	sum, commits, updates := s.sum, s.nCommit, s.nUpdate
	s.mu.Unlock()
	if commits > 0 {
		per := func(d time.Duration) float64 { return ms(d) / float64(commits) }
		out["contq.stage_validate_ms"] = per(sum.Validate)
		out["contq.stage_network_ms"] = per(sum.Network)
		out["contq.stage_repair_ms"] = per(sum.Repair)
		out["contq.stage_journal_ms"] = per(sum.Journal)
		out["contq.stage_publish_ms"] = per(sum.Publish)
		out["contq.commit_total_ms"] = per(sum.Total)
		out["contq.commits"] = float64(commits)
	}
	if updates > 0 {
		out["contq.apply_ns_per_update"] = float64(sum.Total.Nanoseconds()) / float64(updates)
		out["gdn.apply_ns_per_update"] = float64(sum.Network.Nanoseconds()) / float64(updates)
	}
	statsLayers(st, out)
	out["gdn.register_ms"] = s.registerMS
	// Registry.Result alone, without the ticker and the harness around it.
	const reads = 20000
	t0 := time.Now()
	for i := 0; i < reads; i++ {
		s.reg.Result(s.pats[i%len(s.pats)].id)
	}
	out["contq.result_read_ns"] = float64(time.Since(t0).Nanoseconds()) / reads
	// A subscriber that was 64 commits behind resumes from the journal.
	if head := s.reg.Seq(); head > 64 {
		t0 := time.Now()
		sub, err := s.reg.Subscribe(s.pats[0].id, gpm.FromSeq(head-64))
		if err == nil {
			out["contq.subscribe_fromseq_ms"] = ms(time.Since(t0))
			sub.Cancel()
		}
	}
	s.journalProbes(out)
	return out
}

// statsLayers derives the per-layer metrics that a registry's Stats carry,
// wherever the registry runs: in this process (pipeline-fanout) or behind
// gpserve's /v1/stats (serve-stream).
func statsLayers(st gpm.RegistryStats, out map[string]float64) {
	if st.Applies > 0 {
		out["contq.coalesced_share"] = float64(st.CoalescedApplies) / float64(st.Applies)
	}
	if st.UpdatesSubmitted > 0 {
		out["contq.cancelled_share"] = float64(st.UpdatesCancelled) / float64(st.UpdatesSubmitted)
	}
	if t := st.Timings; t != nil {
		out["contq.queue_wait_ms_p50"] = t.QueueWaitMS.P50
		out["contq.mailbox_highwater"] = float64(t.MailboxHighWater)
	}
	if n := st.Network; n != nil {
		out["gdn.join_nodes"] = float64(n.JoinNodes)
		if total := n.RepairsSaved + n.JoinRepairs; total > 0 {
			out["gdn.repairs_saved_share"] = float64(n.RepairsSaved) / float64(total)
		}
	}
	if j := st.Journal; j != nil {
		out["journal.segments"] = float64(j.Segments)
		if j.SnapshotMS != nil && j.SnapshotMS.Count > 0 {
			out["journal.snapshot_ms"] = j.SnapshotMS.Sum / float64(j.SnapshotMS.Count)
		}
	}
}

// journalProbes appends the same commits to a memory-only and to a durable
// journal, outside the registry, to separate the journal's own cost from
// the pipeline's.
func (s *pipelineSUT) journalProbes(out map[string]float64) {
	commits, err := s.reg.Replay(s.reg.Seq() - min(s.reg.Seq(), 256))
	if err != nil || len(commits) == 0 {
		return
	}
	updates := 0
	appendAll := func(j *gpm.Journal) float64 {
		t0 := time.Now()
		for i, c := range commits {
			j.AppendCommit(uint64(i)+1, c.Updates) //nolint:errcheck // a failure shows in Stats below
			updates += len(c.Updates)
		}
		return float64(time.Since(t0).Nanoseconds()) / float64(len(commits))
	}
	mem := gpm.NewMemoryJournal()
	out["journal.append_ns_per_commit_mem"] = appendAll(mem)
	mem.Close() //nolint:errcheck // memory only
	dir, err := s.e.subdir("journal-probe")
	if err != nil {
		return
	}
	defer os.RemoveAll(dir)
	disk, err := gpm.OpenJournal(dir)
	if err != nil {
		return
	}
	updates = 0
	out["journal.append_ns_per_commit_disk"] = appendAll(disk)
	disk.Sync() //nolint:errcheck // see Stats
	if st := disk.Stats(); st.LastError == "" && updates > 0 {
		out["journal.bytes_per_update"] = float64(st.Bytes) / float64(updates)
	}
	disk.Close() //nolint:errcheck // probe journal, removed below
}
