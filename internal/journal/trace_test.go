package journal

import (
	"testing"

	"gpm/internal/graph"
)

const testTraceparent = "00-0123456789abcdef0123456789abcdef-00f067aa0ba902b7-01"

// TestTraceSurvivesDurableReopen: the commit traceparent is part of the
// durable record — it must come back byte-for-byte from Commits after a
// reopen, and commits written without a trace must stay trace-free (no
// framing bleed between records).
func TestTraceSurvivesDurableReopen(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	ups := []graph.Update{{Op: graph.InsertEdge, From: 1, To: 2}}
	if err := j.AppendCommitTrace(1, ups, testTraceparent); err != nil {
		t.Fatal(err)
	}
	if err := j.AppendCommit(2, ups); err != nil {
		t.Fatal(err)
	}
	if err := j.AppendCommitTrace(3, nil, testTraceparent); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	j2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	cs, err := j2.Commits(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(cs) != 3 {
		t.Fatalf("recovered %d commits, want 3", len(cs))
	}
	for i, want := range []string{testTraceparent, "", testTraceparent} {
		if cs[i].Trace != want {
			t.Fatalf("commit %d trace %q, want %q", cs[i].Seq, cs[i].Trace, want)
		}
	}
	if len(cs[0].Updates) != 1 || cs[0].Updates[0].From != 1 {
		t.Fatalf("commit payload lost alongside trace: %+v", cs[0])
	}
}

// TestTraceInRingOnly: a memory-only journal keeps the trace in its ring
// the same way, so followers tailing a non-durable leader still see it.
func TestTraceInRingOnly(t *testing.T) {
	j := New()
	if err := j.AppendCommitTrace(1, nil, testTraceparent); err != nil {
		t.Fatal(err)
	}
	cs, err := j.Commits(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(cs) != 1 || cs[0].Trace != testTraceparent {
		t.Fatalf("ring commit %+v", cs)
	}
}
