package exp

// Driver for the commit-tracing overhead study (not a paper figure — it
// gates this implementation's observability): the span tracer must be
// free when sampling is off (the nil-span fast path gpbench measures
// everywhere else) and cheap enough to leave on in production when
// sampling every commit.

import (
	"context"
	"fmt"
	"time"

	"gpm/internal/contq"
	"gpm/internal/generator"
	"gpm/internal/graph"
	"gpm/internal/obs/trace"
	"gpm/internal/pattern"
)

// traceCommitCost registers pats on a registry wired to tr and times
// committing ups in chunks, each chunk applied under its own root span —
// a no-op root when tr does not sample, which is exactly the production
// default path.
// traceChunks is the number of Apply calls (= commits, absent
// coalescing) each policy run makes.
const traceChunks = 50

func traceCommitCost(base *graph.Graph, pats []*pattern.Pattern, ups []graph.Update, tr *trace.Tracer) (time.Duration, int) {
	reg := contq.New(base.Clone(), contq.WithTracer(tr))
	defer reg.Close()
	for i, p := range pats {
		if err := reg.Register(fmt.Sprintf("p%03d", i), p, contq.KindSim); err != nil {
			panic(err)
		}
	}
	per := (len(ups) + traceChunks - 1) / traceChunks
	d := timeIt(func() {
		for at := 0; at < len(ups); at += per {
			end := at + per
			if end > len(ups) {
				end = len(ups)
			}
			root := tr.StartRoot("bench.apply")
			ctx := trace.NewContext(context.Background(), root.Context())
			if _, err := reg.ApplyContext(ctx, ups[at:end]); err != nil {
				panic(err)
			}
			root.End()
		}
	})
	return d, tr.Len()
}

// FigTrace1 measures end-to-end commit tracing overhead: one pattern set
// and one update stream committed under each sampling policy. The "off"
// row is the path every other figure runs on — CI gates it against the
// untraced baseline — and the "always" row bounds the cost of sampling
// every commit with full stage spans.
func FigTrace1(cfg Config) Table {
	t := Table{
		Title:   "Trace 1: commit tracing overhead by sampling policy",
		Columns: []string{"sampling", "total", "per-commit", "vs off", "retained traces"},
	}
	n := scaled(10000, cfg.Scale, 120)
	m := scaled(30000, cfg.Scale, 360)
	base := generator.Synthetic(n, m, generator.DefaultSchema(4), cfg.Seed)
	nUps := scaled(2000, cfg.Scale, 100)
	ups := generator.Updates(base, nUps/2, nUps/2, cfg.Seed+7)

	const nPats = 10
	pats := make([]*pattern.Pattern, nPats)
	for i := range pats {
		pats[i] = generator.Pattern(base, generator.PatternParams{Nodes: 3 + i%3, Edges: 3 + i%3, Preds: 1, K: 1}, cfg.Seed+int64(41+i))
	}

	policies := []struct {
		name string
		cfg  trace.Config
	}{
		{"off", trace.Config{Mode: trace.ModeOff}},
		{"ratio:0.1", trace.Config{Mode: trace.ModeRatio, Ratio: 0.1}},
		{"always", trace.Config{Mode: trace.ModeAlways}},
	}
	var dOff time.Duration
	retained := make(map[string]int, len(policies))
	for _, pol := range policies {
		d, n := traceCommitCost(base, pats, ups, trace.New(pol.cfg))
		retained[pol.name] = n
		if pol.name == "off" {
			dOff = d
		}
		ratio := "1.00x"
		if dOff > 0 {
			ratio = fmt.Sprintf("%.2fx", float64(d)/float64(dOff))
		}
		t.AddRow(pol.name, d, d/traceChunks, ratio, n)
	}
	t.Notes = append(t.Notes,
		"off is the untraced pipeline (nil-span fast path) every other figure runs on",
		"always adds one span per commit stage plus ring bookkeeping; ratio samples deterministically by trace ID")
	// Trace IDs are random, so ratio:0.1 retains nothing on about 0.5% of
	// runs (0.9^50): the verdict bounds it from above only.
	t.Shape = fmt.Sprintf("off retains 0 traces, always all %d commits, ratio:0.1 fewer than always", traceChunks)
	t.ShapeOK = retained["off"] == 0 && retained["always"] == traceChunks && retained["ratio:0.1"] < traceChunks
	return t
}
