package journal

import (
	"gpm/internal/obs"
)

// The journal's telemetry: disk latency for the three write paths operators
// care about — record appends (the commit critical path), fsyncs (Sync and
// segment seals), and snapshot checkpoints. Instruments live in
// obs.Default(), surface on GET /v1/metricz, and snapshot into Stats for
// GET /v1/stats.

type jmetrics struct {
	appendMS *obs.Histogram // writeDurable: frame append incl. rotation
	fsyncMS  *obs.Histogram // explicit Sync fsyncs of the active segment
	snapMS   *obs.Histogram // WriteSnapshot: serialize + fsync + compact
}

func newJMetrics(reg *obs.Registry) *jmetrics {
	return &jmetrics{
		appendMS: reg.Histogram("gpm_journal_append_ms",
			"Durable record append wall time in milliseconds, including segment rotation when one seals.", nil),
		fsyncMS: reg.Histogram("gpm_journal_fsync_ms",
			"Active-segment fsync wall time in milliseconds.", nil),
		snapMS: reg.Histogram("gpm_journal_snapshot_ms",
			"Snapshot checkpoint wall time in milliseconds (serialize, fsync, compact).", nil),
	}
}
