package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"gpm"
	"gpm/client"
	"gpm/internal/rel"
)

// serveSUT is the system of serve-stream: a journaled gpserve leader with
// its shipped defaults and one gpserve follower, as real processes, driven
// only through the client SDK. The patterns are cheap, so HTTP ingest, the
// JSON codecs, queue wait, SSE delivery and replication carry the load
// while the engines idle.
type serveSUT struct {
	e    *env
	tr   *tracer
	size sizing
	pats []patternSpec
	g    *gpm.Graph // the starting graph, for the sampling A/B probe
	dir  string

	leader, follower *proc
	lc, fc           *client.Client
	wire             *countingTransport
	streams          []*client.Stream
	lsub, fsub       *subscriber
	wg               sync.WaitGroup // stream consumers and the lag poller
	stopPoll         chan struct{}

	bootstrapMS float64

	mu        sync.Mutex
	ops       int
	updates   int
	wallNS    int64     // Σ client.Apply wall over every op
	roots     []int     // span ids of the traced ops
	deliverMS []float64 // SSE receipt − the event's publish stamp, leader stream
	gapMS     []float64 // follower receipt − leader receipt, per seq
	maxLag    uint64
}

// countingTransport counts the bytes of update batches sent and of stream
// frames received.
type countingTransport struct {
	base                     http.RoundTripper
	updateBytes, streamBytes atomic.Int64
}

func (t *countingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.Method == http.MethodPost && req.URL.Path == "/v1/updates" {
		t.updateBytes.Add(req.ContentLength)
	}
	resp, err := t.base.RoundTrip(req)
	if err == nil && strings.HasSuffix(req.URL.Path, "/stream") {
		resp.Body = &countingBody{resp.Body, &t.streamBytes}
	}
	return resp, err
}

type countingBody struct {
	io.ReadCloser
	n *atomic.Int64
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n.Add(int64(n))
	return n, err
}

// newTransport keeps enough idle connections for the open loop's bursts, so
// that the paced phase reuses connections as a real client pool would.
func newTransport() *http.Transport {
	return &http.Transport{MaxIdleConnsPerHost: maxInFlight, IdleConnTimeout: time.Minute}
}

const readyTimeout = 15 * time.Second

// defaultSnapshotEvery is gpserve's -journal-snapshot-every default.
const defaultSnapshotEvery = 1024

func prepareServe(e *env) error {
	_, err := e.gpserveBin()
	return err
}

func setupServe(e *env, g *gpm.Graph, pats []patternSpec, size sizing, tr *tracer) (sut, error) {
	dir, err := e.subdir("serve")
	if err != nil {
		return nil, err
	}
	s := &serveSUT{e: e, tr: tr, size: size, pats: pats, g: g, dir: dir, stopPoll: make(chan struct{})}
	s.wire = &countingTransport{base: newTransport()}
	if err := s.start(); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

// startLeader launches a journaled leader, loads the graph and registers
// the patterns.
func startLeader(e *env, name, dir string, g *gpm.Graph, pats []patternSpec, hc *http.Client, extra ...string) (*proc, *client.Client, error) {
	args := append([]string{"-journal", filepath.Join(dir, name+"-journal")}, extra...)
	p, err := e.startServer(name, dir, args...)
	if err != nil {
		return nil, nil, err
	}
	c := client.New(p.url, client.WithHTTPClient(hc))
	ctx := context.Background()
	if err := p.waitReady(c, readyTimeout); err != nil {
		p.stop()
		return nil, nil, err
	}
	if _, err := c.LoadGraph(ctx, g); err != nil {
		p.stop()
		return nil, nil, fmt.Errorf("loading the graph: %w", err)
	}
	for _, ps := range pats {
		if _, err := c.Register(ctx, ps.id, ps.p, ps.kind); err != nil {
			p.stop()
			return nil, nil, fmt.Errorf("registering %s: %w", ps.id, err)
		}
	}
	return p, c, nil
}

func (s *serveSUT) start() error {
	var err error
	// The leader runs with its shipped defaults: no -trace-sample flag, so
	// commit tracing is `always`, as users get it.
	var flags []string
	if s.size.SnapshotEvery != defaultSnapshotEvery { // only a smoke run shortens it
		flags = []string{"-journal-snapshot-every", fmt.Sprint(s.size.SnapshotEvery)}
	}
	s.leader, s.lc, err = startLeader(s.e, "leader", s.dir, s.g, s.pats, &http.Client{Transport: s.wire}, flags...)
	if err != nil {
		return err
	}
	// The follower starts once the patterns exist, so its snapshot
	// bootstrap brings them along and it need not wait for a reconcile.
	t0 := time.Now()
	s.follower, err = s.e.startServer("follower", s.dir, "-follow", s.leader.url)
	if err != nil {
		return err
	}
	s.fc = client.New(s.follower.url, client.WithHTTPClient(&http.Client{Transport: newTransport()}))
	if err := s.follower.waitReady(s.fc, readyTimeout); err != nil {
		return err
	}
	s.bootstrapMS = ms(time.Since(t0))

	ctx := context.Background()
	s.lsub, s.fsub = &subscriber{}, &subscriber{}
	for _, end := range []struct {
		c  *client.Client
		sb *subscriber
	}{{s.lc, s.lsub}, {s.fc, s.fsub}} {
		st, err := end.c.Stream(ctx, s.pats[0].id)
		if err != nil {
			return fmt.Errorf("opening a stream: %w", err)
		}
		s.streams = append(s.streams, st)
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			for ev := range st.C { // closes on Stream.Close
				if ev.Type == client.EventSnapshot {
					end.sb.mu.Lock()
					end.sb.last = ev.Seq
					end.sb.mu.Unlock()
					continue
				}
				end.sb.note(ev.Seq, ev.At)
			}
		}()
	}
	if s.tr != nil {
		s.wg.Add(1)
		go s.pollLag()
	}
	return nil
}

// followerStatus is the "follower" block of a follower's /v1/stats.
type followerStatus struct {
	State      string `json:"state"`
	AppliedSeq uint64 `json:"applied_seq"`
	Lag        uint64 `json:"lag"`
}

func (s *serveSUT) followerStatus() (followerStatus, error) {
	var doc struct {
		Follower followerStatus `json:"follower"`
	}
	resp, err := http.Get(s.follower.url + "/v1/stats")
	if err != nil {
		return doc.Follower, err
	}
	defer resp.Body.Close()
	err = json.NewDecoder(resp.Body).Decode(&doc)
	return doc.Follower, err
}

// pollLag samples the follower's replication lag through the traced run.
func (s *serveSUT) pollLag() {
	defer s.wg.Done()
	tick := time.NewTicker(50 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-s.stopPoll:
			return
		case <-tick.C:
			if st, err := s.followerStatus(); err == nil {
				s.mu.Lock()
				s.maxLag = max(s.maxLag, st.Lag)
				s.mu.Unlock()
			}
		}
	}
}

func (s *serveSUT) apply(op int, ups []gpm.Update) (uint64, error) {
	t0 := time.Now()
	root := s.tr.start("op", benchLayer, op, -1, len(ups))
	seq, err := s.lc.Apply(context.Background(), ups)
	s.tr.end(root)
	s.mu.Lock()
	s.ops++
	s.updates += len(ups)
	s.wallNS += time.Since(t0).Nanoseconds()
	if root >= 0 {
		s.roots = append(s.roots, root)
	}
	s.mu.Unlock()
	return seq, err
}

func (s *serveSUT) settle(head uint64) error {
	return waitFor(fmt.Sprintf("streams and follower to reach seq %d", head), 10*time.Second, func() bool {
		if s.lsub.lastSeq() < head || s.fsub.lastSeq() < head {
			return false
		}
		st, err := s.followerStatus()
		return err == nil && st.AppliedSeq >= head
	})
}

func pairsRelation(np int, pairs []gpm.Pair) gpm.Relation {
	r := rel.NewRelation(np)
	for _, p := range pairs {
		r[p.U].Add(p.V)
	}
	return r
}

func (s *serveSUT) resultFrom(c *client.Client, ps patternSpec) (gpm.Relation, uint64, error) {
	res, err := c.Result(context.Background(), ps.id)
	if err != nil {
		return nil, 0, err
	}
	return pairsRelation(ps.p.NumNodes(), res.Pairs), res.Seq, nil
}

func (s *serveSUT) result(id string) (gpm.Relation, error) {
	for _, ps := range s.pats {
		if ps.id == id {
			r, _, err := s.resultFrom(s.lc, ps)
			return r, err
		}
	}
	return nil, fmt.Errorf("no pattern %s", id)
}

// read is the read beside the writes: one pattern's result, from the
// follower, as a read replica is used.
func (s *serveSUT) read() error {
	_, err := s.fc.Result(context.Background(), s.pats[0].id)
	return err
}

func (s *serveSUT) received() (primary, replica [][]recvRec) {
	llog, flog := s.lsub.drainLog(), s.fsub.drainLog()
	leaderAt := make(map[uint64]time.Time, len(llog))
	s.mu.Lock()
	for _, r := range llog {
		leaderAt[r.seq] = r.at
		if !r.published.IsZero() {
			s.deliverMS = append(s.deliverMS, ms(r.at.Sub(r.published)))
		}
	}
	for _, r := range flog {
		if at, ok := leaderAt[r.seq]; ok {
			s.gapMS = append(s.gapMS, ms(r.at.Sub(at)))
		}
	}
	s.mu.Unlock()
	return [][]recvRec{llog}, [][]recvRec{flog}
}

// verify holds the follower to the leader: at a quiesced checkpoint both
// must serve the same relation at the same sequence for every pattern.
func (s *serveSUT) verify() []string {
	out := append(s.lsub.drainGaps(), s.fsub.drainGaps()...)
	for _, ps := range s.pats {
		lr, lseq, lerr := s.resultFrom(s.lc, ps)
		fr, fseq, ferr := s.resultFrom(s.fc, ps)
		switch {
		case lerr != nil || ferr != nil:
			out = append(out, fmt.Sprintf("pattern %s: leader read: %v, follower read: %v", ps.id, lerr, ferr))
		case lseq != fseq:
			out = append(out, fmt.Sprintf("pattern %s: leader at seq %d, follower at %d", ps.id, lseq, fseq))
		case !sameRelation(lr, fr):
			out = append(out, fmt.Sprintf("pattern %s: follower has %d pairs, leader %d", ps.id, fr.Size(), lr.Size()))
		}
	}
	return out
}

func (s *serveSUT) peakRSSMB() (float64, error) { return s.leader.peakRSSMB() }

func (s *serveSUT) close() {
	close(s.stopPoll)
	for _, st := range s.streams {
		st.Close()
	}
	s.wg.Wait()
	if s.follower != nil {
		s.follower.stop()
	}
	if s.leader != nil {
		s.leader.stop()
	}
	if !s.e.keep {
		os.RemoveAll(s.dir)
	}
}

// recover pins the journal tail at size.Tail commits past a snapshot (one
// op per commit, after the next checkpoint the leader takes), then sends
// the leader SIGTERM and times its restart from the journal until
// /v1/readyz answers 200; nothing is committed in between, so every one of
// the restarts replays that same tail.
func (s *serveSUT) recover(apply func() error) (time.Duration, error) {
	ctx := context.Background()
	snapshotSeq := func() (snap, head uint64, err error) {
		st, err := s.lc.Stats(ctx)
		if err != nil {
			return 0, 0, err
		}
		if st.Journal == nil {
			return 0, 0, fmt.Errorf("the leader reports no journal")
		}
		return st.Journal.SnapshotSeq, st.Seq, nil
	}
	snap0, _, err := snapshotSeq()
	if err != nil {
		return 0, err
	}
	snap, head := snap0, uint64(0)
	for snap == snap0 {
		// Asking the server after every op would double the padding's
		// round trips, so ask every few ops; the tail is longer than that.
		for i := 0; i < 8; i++ {
			if err := apply(); err != nil {
				return 0, err
			}
		}
		if snap, head, err = snapshotSeq(); err != nil {
			return 0, err
		}
	}
	for ; head-snap < uint64(s.size.Tail); head++ {
		if err := apply(); err != nil {
			return 0, err
		}
	}
	if err := s.settle(head); err != nil {
		return 0, err
	}
	before := make([]gpm.Relation, len(s.pats))
	for i, ps := range s.pats {
		if before[i], _, err = s.resultFrom(s.lc, ps); err != nil {
			return 0, err
		}
	}
	return medianOfRecoveries(func() (time.Duration, error) { return s.restart(before, head) })
}

// restart sends the leader SIGTERM, times its restart from the journal
// until /v1/readyz answers 200, and holds what it then serves to what it
// served before.
func (s *serveSUT) restart(before []gpm.Relation, head uint64) (time.Duration, error) {
	if err := s.leader.terminate(15 * time.Second); err != nil {
		return 0, err
	}
	t0 := time.Now()
	if err := s.e.launch(s.leader); err != nil {
		return 0, err
	}
	if err := s.leader.waitReady(s.lc, readyTimeout); err != nil {
		return 0, err
	}
	d := time.Since(t0)
	for i, ps := range s.pats {
		after, seq, err := s.resultFrom(s.lc, ps)
		if err != nil {
			return d, err
		}
		if seq != head {
			return d, fmt.Errorf("pattern %s: restarted at seq %d, shut down at %d", ps.id, seq, head)
		}
		if !sameRelation(after, before[i]) {
			return d, fmt.Errorf("pattern %s: %d pairs after restart, %d before shutdown", ps.id, after.Size(), before[i].Size())
		}
	}
	return d, nil
}

func selfCPUSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// stubTransport answers every request at once with a fixed commit
// acknowledgement, so that a client call through it costs only what the
// client itself does: encoding the batch and decoding the reply.
type stubTransport struct{}

func (stubTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.Body != nil {
		io.Copy(io.Discard, req.Body) //nolint:errcheck // an in-memory reader
		req.Body.Close()
	}
	return &http.Response{
		StatusCode: http.StatusOK,
		Header:     http.Header{"Content-Type": {"application/json"}},
		Body:       io.NopCloser(strings.NewReader(`{"seq":1}`)),
		Request:    req,
	}, nil
}

// medianOf times fn n times and returns the median, in milliseconds.
func medianOf(n int, fn func() error) (float64, error) {
	xs := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		xs = append(xs, ms(time.Since(t0)))
	}
	return median(xs), nil
}

func (s *serveSUT) layers() map[string]float64 {
	out := make(map[string]float64)
	ctx := context.Background()
	s.mu.Lock()
	ops, updates, wallNS := s.ops, s.updates, s.wallNS
	deliver, gap, maxLag := s.deliverMS, s.gapMS, s.maxLag
	s.mu.Unlock()

	// Idle-system floors: the cheapest round trip, a result read and a
	// metrics scrape on the leader.
	floor, err := medianOf(200, func() error { return s.lc.Healthz(ctx) })
	if err == nil {
		out["serve.http_floor_ms"] = floor
	}
	if v, err := medianOf(100, func() error { _, err := s.lc.Result(ctx, s.pats[0].id); return err }); err == nil {
		out["serve.result_read_ms_p50"] = v
	}
	if v, err := medianOf(10, func() error {
		resp, err := http.Get(s.leader.url + "/v1/metricz")
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		_, err = io.Copy(io.Discard, resp.Body)
		return err
	}); err == nil {
		out["obs.metricz_scrape_ms"] = v
	}

	// What the pipeline behind the server says about the same applies.
	encodeNS := s.codecProbes(out)
	var queueMS, commitMS float64
	var stages [5]float64
	if st, err := s.lc.Stats(ctx); err == nil && st.Timings != nil && ops > 0 {
		t := st.Timings
		perCommit := func(h gpm.HistSnapshot) float64 {
			if h.Count == 0 {
				return 0
			}
			return h.Sum / float64(h.Count)
		}
		queueMS, commitMS = perCommit(t.QueueWaitMS), perCommit(t.TotalMS)
		stages = [5]float64{perCommit(t.ValidateMS), perCommit(t.NetworkMS), perCommit(t.RepairMS), perCommit(t.JournalMS), perCommit(t.PublishMS)}
		// The leader's own account of its commit pipeline, every commit
		// since it started: the same names pipeline-fanout reports.
		statsLayers(st, out)
		out["contq.stage_validate_ms"] = stages[0]
		out["contq.stage_network_ms"] = stages[1]
		out["contq.stage_repair_ms"] = stages[2]
		out["contq.stage_journal_ms"] = stages[3]
		out["contq.stage_publish_ms"] = stages[4]
		out["contq.commit_total_ms"] = commitMS
		out["contq.commits"] = float64(t.TotalMS.Count)
		if st.UpdatesApplied > 0 {
			out["contq.apply_ns_per_update"] = t.TotalMS.Sum * 1e6 / float64(st.UpdatesApplied)
			out["gdn.apply_ns_per_update"] = t.NetworkMS.Sum * 1e6 / float64(st.UpdatesApplied)
		}
		out["serve.apply_overhead_ms"] = float64(wallNS)/1e6/float64(ops) - queueMS - commitMS
	}
	if updates > 0 {
		out["serve.bytes_in_per_update"] = float64(s.wire.updateBytes.Load()) / float64(updates)
	}
	if len(deliver) > 0 {
		out["serve.bytes_out_per_event"] = float64(s.wire.streamBytes.Load()) / float64(len(deliver))
		out["serve.sse_deliver_ms_p50"] = median(deliver)
	}
	if len(gap) > 0 {
		out["follow.apply_gap_ms_p50"] = median(gap)
	}
	out["follow.bootstrap_ms"] = s.bootstrapMS
	out["follow.lag_commits_max"] = float64(maxLag)
	for _, pr := range []struct {
		p        *proc
		cpu, rss string
	}{{s.leader, "serve.leader_cpu_s", "serve.leader_rss_mb"}, {s.follower, "serve.follower_cpu_s", "serve.follower_rss_mb"}} {
		if v, err := pr.p.cpuSeconds(); err == nil {
			out[pr.cpu] = v
		}
		if v, err := pr.p.peakRSSMB(); err == nil {
			out[pr.rss] = v
		}
	}
	reconnects := 0
	for _, st := range s.streams {
		ss := st.Stats()
		reconnects += int(ss.Attempts) - 1
	}
	out["client.stream_reconnects"] = float64(reconnects)
	out["client.cpu_s"] = selfCPUSeconds()
	if v, err := s.samplingCost(); err == nil {
		out["obs.default_sampling_cost_share"] = v
	}

	// The server is not instrumented from here, so what happened inside a
	// traced op is known only on average: each gets the mean client
	// encode, the idle round-trip floor, the mean queue wait and the mean
	// commit with its stages, laid back to back from its start. What is
	// left of the op — decoding the body and encoding the reply in the
	// server, connection handling, scheduling — stays unattributed.
	var stageDurs [5]time.Duration
	for i, d := range stages {
		stageDurs[i] = time.Duration(d * float64(time.Millisecond))
	}
	spans := s.tr.snapshot()
	for _, root := range s.roots {
		sp := spans[root]
		t0, end := s.tr.t0.Add(time.Duration(sp.Start)), s.tr.t0.Add(time.Duration(sp.End))
		at := func(t0 time.Time, d float64) time.Time { // t0 + d ms, within the op
			t := t0.Add(time.Duration(d * float64(time.Millisecond)))
			if t.After(end) {
				return end
			}
			return t
		}
		next := at(t0, encodeNS*float64(sp.Units)/1e6)
		s.tr.add("client.encode", "client", sp.Op, root, sp.Units, t0, next)
		t0, next = next, at(next, floor)
		s.tr.add("serve.http", "serve", sp.Op, root, 0, t0, next)
		t0, next = next, at(next, queueMS)
		s.tr.add("contq.queue_wait", "contq", sp.Op, root, 0, t0, next)
		s.tr.addCommit(sp.Op, root, sp.Units, next, at(next, commitMS), stageDurs)
	}
	return out
}

// codecProbes times the JSON codec of update batches and the client's own
// share of an Apply call, on batches shaped like the workload's, and
// returns the client's nanoseconds per update.
func (s *serveSUT) codecProbes(out map[string]float64) (clientNS float64) {
	stream := newOpStream(s.g, s.size, 1)
	batches := make([][]gpm.Update, 2000)
	updates := 0
	for i := range batches {
		_, batches[i] = stream.take()
		updates += len(batches[i])
	}
	encoded := make([][]byte, len(batches))
	t0 := time.Now()
	for i, b := range batches {
		encoded[i], _ = json.Marshal(b) //nolint:errcheck // update batches always encode
	}
	out["graph.updates_json_encode_ns_per_update"] = float64(time.Since(t0).Nanoseconds()) / float64(updates)
	t0 = time.Now()
	for _, data := range encoded {
		var ups []gpm.Update
		json.Unmarshal(data, &ups) //nolint:errcheck // just encoded above
	}
	out["graph.updates_json_decode_ns_per_update"] = float64(time.Since(t0).Nanoseconds()) / float64(updates)
	stub := client.New("http://stub.invalid", client.WithHTTPClient(&http.Client{Transport: stubTransport{}}))
	t0 = time.Now()
	for _, b := range batches {
		stub.Apply(context.Background(), b) //nolint:errcheck // the stub cannot fail
	}
	clientNS = float64(time.Since(t0).Nanoseconds()) / float64(updates)
	out["client.encode_ns_per_update"] = clientNS
	return clientNS
}

// samplingCost is a short saturation A/B between two fresh leaders over the
// same graph, patterns and op sequence: one with the shipped default
// (-trace-sample always) and one with -trace-sample off. It returns how much
// faster the untraced one commits, as a share.
func (s *serveSUT) samplingCost() (float64, error) {
	dir, err := s.e.subdir("sampling-ab")
	if err != nil {
		return 0, err
	}
	if !s.e.keep {
		defer os.RemoveAll(dir)
	}
	type side struct {
		c      *client.Client
		stream *opStream
		mu     sync.Mutex
		ops    int
		wall   time.Duration
	}
	var sides [2]*side
	for i, extra := range [][]string{nil, {"-trace-sample", "off"}} {
		p, c, err := startLeader(s.e, fmt.Sprintf("ab%d", i), dir, s.g, s.pats, &http.Client{Transport: newTransport()}, extra...)
		if err != nil {
			return 0, err
		}
		defer p.stop()
		sides[i] = &side{c: c, stream: newOpStream(s.g, s.size, 1)}
	}
	var firstErr error
	for round := 0; round < 4; round++ {
		for _, sd := range sides {
			start := time.Now()
			deadline := start.Add(250 * time.Millisecond)
			var wg sync.WaitGroup
			for w := 0; w < s.size.Writers; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for time.Now().Before(deadline) {
						sd.mu.Lock()
						_, ups := sd.stream.take()
						sd.mu.Unlock()
						_, err := sd.c.Apply(context.Background(), ups)
						sd.mu.Lock()
						sd.ops++
						if err != nil && firstErr == nil {
							firstErr = err
						}
						sd.mu.Unlock()
					}
				}()
			}
			wg.Wait()
			sd.wall += time.Since(start)
		}
	}
	if firstErr != nil {
		return 0, firstErr
	}
	rate := func(sd *side) float64 { return float64(sd.ops) / sd.wall.Seconds() }
	return rate(sides[1])/rate(sides[0]) - 1, nil
}
