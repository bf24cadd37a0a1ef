// Package follow is the replication side of follower mode: it keeps a
// read-only gpserve instance (serve.NewReadOnly) in lockstep with a
// leader over the v1 wire API.
//
// The follower bootstraps from a full-state fetch (GET /v1/snapshot) when
// it holds no local registry. It then tails the leader's raw ΔG commit
// stream (GET /v1/commits/stream via the SDK's reconnecting CommitStream)
// from its own head: the stream backfills whatever the replica missed from
// the leader's journal, and a compacted range sends the follower back to
// the snapshot. Every batch applies through the follower's own registry at
// the leader's own sequence numbers, so everything keyed by sequence —
// SSE Last-Event-ID resume, Replay tails — works identically against
// leader or follower. The pattern set rides the same stream: each
// connection's head carries it as of the leader's head, mirrored once the
// backfill has brought the replica there, and every later pattern change
// brings it again, in commit order. A pattern the leader changed inside a
// backfilled range therefore changes here at the end of the backfill, not
// at its own sequence; one mirrored late still computes the correct
// match, engine state being a function of the current graph.
//
// Readiness (wired into /v1/readyz through serve.SetReadyCheck) reflects
// replication health: not ready while bootstrapping, while the commit
// stream is disconnected from the leader, or while the applied sequence
// lags the leader's head beyond the configured bound. The head and every
// commit frame name the leader's head as of their sending, which is how
// the lag is known.
package follow

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"log/slog"
	"sync"
	"time"

	"gpm/client"
	"gpm/internal/contq"
	"gpm/internal/journal"
	"gpm/internal/obs"
	"gpm/internal/serve"
)

// Metric names of the replication pipeline, exposed on the follower's
// GET /v1/metricz.
const (
	// MetricAppliedSeq is the newest leader commit sequence applied
	// locally.
	MetricAppliedSeq = "gpm_follower_applied_seq"
	// MetricLag is the replication lag in commits: the leader's newest
	// known sequence minus the applied sequence.
	MetricLag = "gpm_follower_replication_lag"
	// MetricConnected is 1 while the commit stream holds an open
	// connection to the leader, 0 otherwise.
	MetricConnected = "gpm_follower_connected"
)

// Config parameterizes a Follower.
type Config struct {
	// Leader is the leader's base URL (e.g. "http://leader:8080").
	Leader string
	// MaxLag bounds readiness: when the applied sequence lags the
	// leader's newest known sequence by more than MaxLag commits, Ready
	// reports an error (and /v1/readyz answers 503). 0 means lag alone
	// never gates readiness — only bootstrap and connectivity do.
	MaxLag uint64
	// Logger receives replication lifecycle events (default slog.Default).
	Logger *slog.Logger
	// Metrics receives the follower gauges (default obs.Default()).
	Metrics *obs.Registry
	// RegistryOptions are applied to every registry a (re)bootstrap
	// builds, alongside the follower's own memory journal.
	RegistryOptions []contq.Option
	// ClientOptions configure the SDK client used against the leader.
	ClientOptions []client.Option
}

// Stats is the follower block attached to the follower's /v1/stats
// document.
type Stats struct {
	Leader     string `json:"leader"`
	State      string `json:"state"` // bootstrapping | following | disconnected
	AppliedSeq uint64 `json:"applied_seq"`
	LeaderSeq  uint64 `json:"leader_seq"`
	Lag        uint64 `json:"lag"`
	Bootstraps uint64 `json:"bootstraps"` // snapshot bootstraps since start
	LastError  string `json:"last_error,omitempty"`
}

// Follower replicates one leader into a read-only server. Construct with
// New, then drive with Run; Ready and Stats serve the readiness and
// stats hooks (New wires both into the server).
type Follower struct {
	cfg Config
	cli *client.Client
	srv *serve.Server

	gApplied   *obs.Gauge
	gLag       *obs.Gauge
	gConnected *obs.Gauge

	mu           sync.Mutex
	reg          *contq.Registry // nil until the first bootstrap installs one
	bootstrapped bool
	connected    bool
	leaderSeq    uint64
	bootstraps   uint64
	lastErr      string
}

// New builds a follower replicating cfg.Leader into srv (a
// serve.NewReadOnly server), wiring its readiness and stats hooks.
// Nothing talks to the leader until Run.
func New(srv *serve.Server, cfg Config) *Follower {
	if cfg.Logger == nil {
		cfg.Logger = slog.Default()
	}
	if cfg.Metrics == nil {
		cfg.Metrics = obs.Default()
	}
	f := &Follower{
		cfg: cfg,
		cli: client.New(cfg.Leader, cfg.ClientOptions...),
		srv: srv,
		gApplied: cfg.Metrics.Gauge(MetricAppliedSeq,
			"Newest leader commit sequence applied by this follower."),
		gLag: cfg.Metrics.Gauge(MetricLag,
			"Replication lag in commits: leader's newest known sequence minus the applied sequence."),
		gConnected: cfg.Metrics.Gauge(MetricConnected,
			"1 while the commit stream holds an open connection to the leader, 0 otherwise."),
	}
	srv.SetReadyCheck(f.Ready)
	srv.SetStatsExtra(func() any { return f.Stats() })
	return f
}

// Ready reports replication health: nil when bootstrapped, connected to
// the leader, and within the lag bound — the /v1/readyz contract.
func (f *Follower) Ready() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if !f.bootstrapped {
		return fmt.Errorf("follower bootstrapping from %s", f.cfg.Leader)
	}
	if !f.connected {
		return fmt.Errorf("follower disconnected from leader %s", f.cfg.Leader)
	}
	if lag := f.lagLocked(); f.cfg.MaxLag > 0 && lag > f.cfg.MaxLag {
		return fmt.Errorf("follower lagging leader %s by %d commits (bound %d)", f.cfg.Leader, lag, f.cfg.MaxLag)
	}
	return nil
}

// Stats snapshots the replication state.
func (f *Follower) Stats() Stats {
	f.mu.Lock()
	defer f.mu.Unlock()
	st := Stats{
		Leader:     f.cfg.Leader,
		AppliedSeq: f.appliedLocked(),
		LeaderSeq:  f.leaderSeq,
		Lag:        f.lagLocked(),
		Bootstraps: f.bootstraps,
		LastError:  f.lastErr,
	}
	switch {
	case !f.bootstrapped:
		st.State = "bootstrapping"
	case !f.connected:
		st.State = "disconnected"
	default:
		st.State = "following"
	}
	return st
}

// appliedLocked is the local registry's head (0 before bootstrap).
func (f *Follower) appliedLocked() uint64 {
	if f.reg == nil {
		return 0
	}
	return f.reg.Seq()
}

// lagLocked is the saturating leader-minus-applied distance.
func (f *Follower) lagLocked() uint64 {
	applied := f.appliedLocked()
	if f.leaderSeq <= applied {
		return 0
	}
	return f.leaderSeq - applied
}

// observeLeaderSeq folds a newly learned leader sequence into the state
// (monotonic) and refreshes the gauges.
func (f *Follower) observeLeaderSeq(seq uint64) {
	f.mu.Lock()
	if seq > f.leaderSeq {
		f.leaderSeq = seq
	}
	f.gApplied.Set(int64(f.appliedLocked()))
	f.gLag.Set(int64(f.lagLocked()))
	f.mu.Unlock()
}

// setConnected tracks the commit stream's connection state.
func (f *Follower) setConnected(up bool) {
	f.mu.Lock()
	f.connected = up
	f.mu.Unlock()
	if up {
		f.gConnected.Set(1)
	} else {
		f.gConnected.Set(0)
	}
}

// setErr records the most recent replication error for Stats.
func (f *Follower) setErr(err error) {
	f.mu.Lock()
	if err != nil {
		f.lastErr = err.Error()
	}
	f.mu.Unlock()
}

// errResync marks a tail failure that invalidates the local replica:
// the leader's history diverged from (or compacted past) ours, so the
// only way forward is a fresh snapshot bootstrap.
var errResync = errors.New("follow: replica must re-sync from a snapshot")

// needsResync classifies terminal tail errors: compacted ranges, resume
// points ahead of the leader's head (the leader restarted with less
// history), and local divergence all demand a snapshot re-bootstrap.
func needsResync(err error) bool {
	if errors.Is(err, client.ErrCompacted) || errors.Is(err, contq.ErrReplicaGap) {
		return true
	}
	var apiErr *client.APIError
	if errors.As(err, &apiErr) {
		return apiErr.Code == client.CodeSeqFuture || apiErr.Code == client.CodeCompacted
	}
	return false
}

// Run drives the replication loop until ctx is canceled: bootstrap (when
// no replica survives), then tail the commit stream, applying its commits
// and pattern changes — re-bootstrapping from a snapshot whenever the tail
// reports the replica can no longer follow. Transient leader failures
// (unreachable, restarting) are retried with backoff; Run only returns
// ctx.Err().
func (f *Follower) Run(ctx context.Context) error {
	backoff := 200 * time.Millisecond
	const backoffMax = 3 * time.Second
	for {
		if err := f.sync(ctx); err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			f.setErr(err)
			f.cfg.Logger.Warn("follower sync failed; retrying", "leader", f.cfg.Leader, "error", err)
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(backoff):
			}
			if backoff *= 2; backoff > backoffMax {
				backoff = backoffMax
			}
			continue
		}
		backoff = 200 * time.Millisecond
	}
}

// sync is one bootstrap-and-tail cycle. It returns nil when the tail
// ended in a way the next cycle repairs by itself (re-sync scheduled),
// or the error to back off on.
func (f *Follower) sync(ctx context.Context) error {
	if err := f.bootstrap(ctx); err != nil {
		return err
	}
	err := f.tail(ctx)
	f.setConnected(false)
	if ctx.Err() != nil {
		return ctx.Err()
	}
	if errors.Is(err, errResync) {
		// Drop the replica: the next bootstrap must take the snapshot
		// path, tailing over diverged state would corrupt it.
		f.mu.Lock()
		f.reg = nil
		f.bootstrapped = false
		f.mu.Unlock()
		f.cfg.Logger.Warn("follower re-syncing from snapshot", "leader", f.cfg.Leader)
		return nil
	}
	return err
}

// bootstrap installs a local registry from the leader's snapshot unless a
// replica already exists: the tail's FromSeq stream backfills a surviving
// replica's missed commits itself.
func (f *Follower) bootstrap(ctx context.Context) error {
	f.mu.Lock()
	reg := f.reg
	f.mu.Unlock()
	if reg != nil {
		return nil
	}

	snap, err := f.cli.Snapshot(ctx)
	if err != nil {
		return fmt.Errorf("fetching leader snapshot: %w", err)
	}
	defs := make([]journal.PatternDef, 0, len(snap.Patterns))
	for _, pd := range snap.Patterns {
		defs = append(defs, journalDef(pd))
	}
	jnl := journal.New()
	opts := make([]contq.Option, 0, len(f.cfg.RegistryOptions)+1)
	opts = append(opts, f.cfg.RegistryOptions...)
	opts = append(opts, contq.WithJournal(jnl))
	newReg, err := contq.NewAt(snap.Graph, snap.Seq, defs, opts...)
	if err != nil {
		return fmt.Errorf("building replica from snapshot at seq %d: %w", snap.Seq, err)
	}
	f.srv.SetRegistry(newReg, jnl)
	f.mu.Lock()
	f.reg = newReg
	f.bootstrapped = true
	f.bootstraps++
	f.mu.Unlock()
	f.observeLeaderSeq(snap.Seq)
	f.cfg.Logger.Info("follower bootstrapped from snapshot",
		"leader", f.cfg.Leader, "seq", snap.Seq, "patterns", len(defs),
		"nodes", snap.Graph.NumNodes(), "edges", snap.Graph.NumEdges())
	return nil
}

// connCheck is how often tail refreshes the connection state while no
// event flows, so an idle leader outage shows on readiness and the gauge.
const connCheck = time.Second

// tail applies the leader's live commit stream until ctx ends or the
// stream reports a terminal condition. Returns errResync when the replica
// must rebuild from a snapshot.
func (f *Follower) tail(ctx context.Context) error {
	f.mu.Lock()
	reg := f.reg
	f.mu.Unlock()
	st, err := f.cli.CommitStream(ctx, client.FromSeq(reg.Seq()))
	if err != nil {
		if needsResync(err) {
			return errResync
		}
		return fmt.Errorf("opening commit stream: %w", err)
	}
	defer st.Close()
	f.setConnected(st.Stats().Connected)

	// The head's pattern set, held until the replica reaches its seq.
	var pending []client.PatternDef
	var pendingAt uint64
	tick := time.NewTicker(connCheck)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-tick.C:
			f.setConnected(st.Stats().Connected)
		case ev, ok := <-st.C:
			if !ok {
				err := st.Err()
				if err == nil {
					err = errors.New("commit stream closed")
				}
				if needsResync(err) {
					return errResync
				}
				return fmt.Errorf("commit stream ended: %w", err)
			}
			f.setConnected(true)
			switch ev.Type {
			case client.EventHead:
				f.observeLeaderSeq(ev.Head)
				pending, pendingAt = ev.Patterns, ev.Head
			case client.EventPatterns:
				pending = nil
				if err := f.mirror(reg, ev.Patterns); err != nil {
					return err
				}
			case client.EventCommit:
				// The frame's traceparent continues the leader commit's
				// trace through this replica's apply pipeline.
				if err := reg.ApplyReplicated(ev.Seq, ev.Updates, ev.Trace); err != nil {
					if needsResync(err) {
						return errResync
					}
					return fmt.Errorf("applying replicated commit %d: %w", ev.Seq, err)
				}
				f.observeLeaderSeq(max(ev.Seq, ev.Head))
			}
			if pending != nil && reg.Seq() >= pendingAt {
				if err := f.mirror(reg, pending); err != nil {
					return err
				}
				pending = nil
			}
		}
	}
}

// mirror makes the replica's pattern set the leader's, defs. A pattern the
// replica holds with the same kind, text and registration sequence stays
// as it is, its subscribers' streams with it; one that differs is
// replaced, one the leader no longer has dropped.
func (f *Follower) mirror(reg *contq.Registry, defs []client.PatternDef) error {
	want := make(map[string]journal.PatternDef, len(defs))
	for _, wire := range defs {
		want[wire.ID] = journalDef(wire)
	}
	for _, pi := range reg.Patterns() {
		pd, keep := want[pi.ID]
		have, _ := reg.PatternDef(pi.ID)
		if keep && have.Kind == pd.Kind && have.RegSeq == pd.RegSeq && bytes.Equal(have.Def, pd.Def) {
			delete(want, pi.ID)
			continue
		}
		reg.Unregister(pi.ID)
		if !keep {
			f.cfg.Logger.Info("follower dropped pattern", "id", pi.ID)
		}
	}
	for _, pd := range want {
		if err := reg.RegisterDef(pd); err != nil {
			return fmt.Errorf("mirroring pattern %q: %w", pd.ID, err)
		}
		f.cfg.Logger.Info("follower mirrored pattern", "id", pd.ID, "kind", pd.Kind)
	}
	return nil
}

// journalDef is a leader's pattern definition as the registry takes it.
func journalDef(pd client.PatternDef) journal.PatternDef {
	return journal.PatternDef{ID: pd.ID, Kind: pd.Kind, Def: []byte(pd.Def), RegSeq: pd.RegSeq}
}
