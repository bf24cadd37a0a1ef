package main

// The four workloads. Names, order and reasons match BENCHMARK.json; the
// sizes are frozen in gate.json (README.md, "Frozen sizes") and never
// derived at run time.
var workloads = []*workload{
	{
		name:     "engine-unit",
		patterns: func(sizing) []patternSpec { return enginePatterns() },
		phases:   []phase{{name: "closed", share: 1}},
		setup:    setupEngines,
	},
	{
		name:     "engine-batch",
		patterns: func(sizing) []patternSpec { return enginePatterns() },
		phases:   []phase{{name: "closed", share: 1}},
		setup:    setupEngines,
	},
	{
		name:     "pipeline-fanout",
		patterns: func(s sizing) []patternSpec { return fanoutPatterns(s.Labels) },
		phases:   []phase{{name: "closed", share: 1}},
		setup:    setupPipeline,
	},
	{
		name:     "serve-stream",
		patterns: func(s sizing) []patternSpec { return servePatterns(s.Labels) },
		phases:   []phase{{name: "sat", share: 0.4}, {name: "paced", share: 0.6, open: true}},
		prepare:  prepareServe,
		setup:    setupServe,
	},
}

func init() {
	for _, wl := range workloads {
		size, ok := theGate.Sizes[wl.name]
		if !ok {
			panic("bench: gate.json has no sizes for " + wl.name) // embedded at build time: a bug
		}
		wl.size = size
	}
}

func workloadByName(name string) *workload {
	for _, wl := range workloads {
		if wl.name == name {
			return wl
		}
	}
	return nil
}
