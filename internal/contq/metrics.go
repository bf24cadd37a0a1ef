package contq

import (
	"time"

	"gpm/internal/obs"
)

// This file is the registry's telemetry: every commit is split into stages
// (validate → network → repair fan-out → graph mutation → journal →
// publish) and each stage's wall time lands in a fixed-bucket histogram,
// alongside queue-wait and coalescing-size distributions and the
// subscription-side gauges. The instruments live in an obs.Registry
// (obs.Default() unless WithMetrics injects one), which gpserve exposes at
// GET /v1/metricz; Stats().Timings carries JSON snapshots of the same
// data. These per-stage costs are the observation stream the ROADMAP's
// adaptive execution policy (incremental repair vs batch recompute per
// commit) learns its thresholds from.

// Metric names of the commit pipeline.
const (
	// MetricCommitStage is the per-stage commit wall-time histogram,
	// labeled stage=validate|network|repair|journal|publish.
	MetricCommitStage = "gpm_commit_stage_ms"
	// MetricCommitTotal is the whole-commit wall-time histogram (writer
	// lock acquired → publishes done).
	MetricCommitTotal = "gpm_commit_ms"
)

// metrics bundles the registry's instruments. One instance per Registry;
// instruments with the same identity are shared through the obs registry,
// so several contq registries in one process aggregate into the same
// series (the obs get-or-create contract).
type metrics struct {
	queueWait   *obs.Histogram // Apply enqueue → drain pickup
	drainSize   *obs.Histogram // Apply calls coalesced per commit
	drainUps    *obs.Histogram // effective updates per commit
	validate    *obs.Histogram
	network     *obs.Histogram
	repair      *obs.Histogram // fan-out wall time (the max across engines bounds it)
	journal     *obs.Histogram
	publish     *obs.Histogram
	total       *obs.Histogram
	repairKind  map[Kind]*obs.Histogram // per-engine repair time by kind
	commits     *obs.Counter
	applies     *obs.Counter
	subsActive  *obs.Gauge // open subscriptions across all patterns
	csubsActive *obs.Gauge // open raw-ΔG commit subscriptions
	mailboxHW   *obs.Gauge // deepest subscriber mailbox ever observed
}

func newMetrics(reg *obs.Registry) *metrics {
	stage := func(s string) *obs.Histogram {
		return reg.Histogram(MetricCommitStage,
			"Per-stage commit wall time in milliseconds (validate, network, repair, journal, publish).",
			nil, obs.L("stage", s))
	}
	m := &metrics{
		queueWait: reg.Histogram("gpm_commit_queue_wait_ms",
			"Time an Apply call waited in the coalescing queue before its commit started, in milliseconds.", nil),
		drainSize: reg.Histogram("gpm_commit_drain_batches",
			"Apply calls coalesced into one commit.", obs.SizeBuckets),
		drainUps: reg.Histogram("gpm_commit_effective_updates",
			"Net effective updates per commit, after edge-level cancellation.", obs.SizeBuckets),
		validate: stage("validate"),
		network:  stage("network"),
		repair:   stage("repair"),
		journal:  stage("journal"),
		publish:  stage("publish"),
		total: reg.Histogram(MetricCommitTotal,
			"Whole-commit wall time in milliseconds, writer lock acquired through publishes done.", nil),
		commits: reg.Counter("gpm_commits_total", "Committed drains (each advanced the sequence by one)."),
		applies: reg.Counter("gpm_applies_total", "Apply calls admitted into commits."),
		subsActive: reg.Gauge("gpm_subscriptions_active",
			"Open match-delta subscriptions across all standing patterns."),
		csubsActive: reg.Gauge("gpm_commit_subscriptions_active",
			"Open raw-ΔG commit subscriptions (followers and commit-stream tails)."),
		mailboxHW: reg.Gauge("gpm_subscription_mailbox_highwater",
			"Deepest per-subscriber mailbox observed since start (events queued behind a slow consumer)."),
		repairKind: make(map[Kind]*obs.Histogram, 3),
	}
	for _, k := range []Kind{KindSim, KindBSim, KindIso} {
		m.repairKind[k] = reg.Histogram("gpm_commit_repair_ms",
			"Per-engine repair wall time by kind within one commit's fan-out, in milliseconds.",
			nil, obs.L("kind", string(k)))
	}
	return m
}

// CommitTiming is the per-stage breakdown of one committed drain, handed
// to the WithCommitObserver callback right after the commit publishes —
// the hook gpserve's -slow-commit warning and any adaptive policy hang off.
// Durations are zero for stages that did not run (e.g. Network with no
// effective updates).
type CommitTiming struct {
	Seq      uint64 // the commit's sequence number
	Batches  int    // Apply calls coalesced into this commit
	Updates  int    // net effective updates fanned out
	Patterns int    // engines repaired

	Validate time.Duration
	Network  time.Duration
	Repair   time.Duration // fan-out wall time
	Journal  time.Duration
	Publish  time.Duration
	Total    time.Duration

	// SlowestPattern identifies the pattern whose engine repair took
	// longest this commit (empty when nothing was repaired).
	SlowestPattern string
	SlowestRepair  time.Duration

	// Trace is the W3C traceparent of the commit's span ("" when the
	// commit was not sampled) — the key a slow-commit logger uses to pull
	// the full span tree out of the registry's tracer.
	Trace string
}

// WithMetrics directs the registry's instruments into reg instead of the
// process-wide obs.Default() — mainly for tests that need isolated
// metrics, and for servers exposing one registry per instance.
func WithMetrics(reg *obs.Registry) Option {
	return func(r *Registry) { r.obsReg = reg }
}

// WithCommitObserver installs fn, called synchronously after every
// committed drain with its per-stage timing breakdown. The callback runs
// inside the writer's critical section — keep it cheap (log, enqueue);
// blocking in it stalls the commit pipeline.
func WithCommitObserver(fn func(CommitTiming)) Option {
	return func(r *Registry) { r.commitObs = fn }
}

// TimingStats is the Stats().Timings block: JSON snapshots of the commit
// pipeline's histograms plus the subscription gauges. All durations are
// milliseconds.
type TimingStats struct {
	QueueWaitMS      obs.HistSnapshot `json:"queue_wait_ms"`
	DrainBatches     obs.HistSnapshot `json:"drain_batches"`
	EffectiveUpdates obs.HistSnapshot `json:"effective_updates"`
	ValidateMS       obs.HistSnapshot `json:"validate_ms"`
	NetworkMS        obs.HistSnapshot `json:"network_ms"`
	RepairMS         obs.HistSnapshot `json:"repair_ms"`
	JournalMS        obs.HistSnapshot `json:"journal_ms"`
	PublishMS        obs.HistSnapshot `json:"publish_ms"`
	TotalMS          obs.HistSnapshot `json:"total_ms"`
	// RepairByKindMS breaks the fan-out down by engine kind; kinds that
	// never repaired are omitted.
	RepairByKindMS map[string]obs.HistSnapshot `json:"repair_by_kind_ms,omitempty"`
	// SubscriptionsActive and MailboxHighWater are the live SSE-side
	// gauges: open subscriptions, and the deepest mailbox ever seen.
	SubscriptionsActive int64 `json:"subscriptions_active"`
	MailboxHighWater    int64 `json:"mailbox_high_water"`
}

// timingStats snapshots the instruments for Stats().
func (m *metrics) timingStats() *TimingStats {
	ts := &TimingStats{
		QueueWaitMS:         m.queueWait.Snapshot(),
		DrainBatches:        m.drainSize.Snapshot(),
		EffectiveUpdates:    m.drainUps.Snapshot(),
		ValidateMS:          m.validate.Snapshot(),
		NetworkMS:           m.network.Snapshot(),
		RepairMS:            m.repair.Snapshot(),
		JournalMS:           m.journal.Snapshot(),
		PublishMS:           m.publish.Snapshot(),
		TotalMS:             m.total.Snapshot(),
		SubscriptionsActive: m.subsActive.Value(),
		MailboxHighWater:    m.mailboxHW.Value(),
	}
	for k, h := range m.repairKind {
		s := h.Snapshot()
		if s.Count == 0 {
			continue
		}
		if ts.RepairByKindMS == nil {
			ts.RepairByKindMS = make(map[string]obs.HistSnapshot, len(m.repairKind))
		}
		ts.RepairByKindMS[string(k)] = s
	}
	return ts
}
