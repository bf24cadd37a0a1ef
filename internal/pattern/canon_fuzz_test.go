package pattern

import (
	"bytes"
	"encoding/json"
	"testing"
)

// FuzzDecomposeCanon checks the property the shared evaluation network
// depends on: the canonical key of a pattern — and every node key of its
// decomposition — is identical for the pattern as parsed, after a text
// Write/Parse round-trip, and after a JSON Marshal/Unmarshal round-trip.
// If any of these drift, structurally identical standing patterns stop
// hashing to the same network nodes depending on how they arrived.
func FuzzDecomposeCanon(f *testing.F) {
	f.Add("node 0 label=\"a\"\nnode 1 label=\"b\"\nedge 0 1 1\n")
	f.Add("node 0 true\nnode 1 x >= 2\nnode 2 x >= 2\nedge 0 1 *\nedge 0 2 *\nedge 1 2 3 friend\n")
	f.Add("node 0 name=\"a && b\"\nnode 1 s=\"x<=y\"\nedge 0 0 2\nedge 1 0 1\n")
	f.Add("node 0 v=NaN && w!=-Inf\nedge 0 0 1\n")
	f.Add("node 2 label=\"c\"\nnode 0 label=\"c\"\nnode 1 label=\"c\"\nedge 1 0 1\nedge 2 1 1\n")
	f.Fuzz(func(t *testing.T, doc string) {
		p, err := Parse(bytes.NewReader([]byte(doc)))
		if err != nil || p.NumNodes() == 0 {
			return
		}
		d := Decompose(p)
		if d.Key != CanonicalKey(p) {
			t.Fatalf("Decompose key %q != CanonicalKey %q", d.Key, CanonicalKey(p))
		}

		var text bytes.Buffer
		if err := p.Write(&text); err != nil {
			t.Fatalf("accepted pattern failed to write: %v", err)
		}
		fromText, err := Parse(bytes.NewReader(text.Bytes()))
		if err != nil {
			t.Fatalf("own text format rejected: %v\n%s", err, text.String())
		}

		js, err := json.Marshal(p)
		if err != nil {
			t.Fatalf("accepted pattern failed to marshal: %v", err)
		}
		fromJSON := New()
		if err := json.Unmarshal(js, fromJSON); err != nil {
			t.Fatalf("own JSON rejected: %v\n%s", err, js)
		}

		for _, rt := range []struct {
			via string
			q   *Pattern
		}{{"text", fromText}, {"json", fromJSON}} {
			d2 := Decompose(rt.q)
			if d2.Key != d.Key {
				t.Fatalf("%s round-trip changed canonical key\n was %s\n now %s\n doc:\n%s", rt.via, d.Key, d2.Key, doc)
			}
			if !sameNodeKeys(d, d2) {
				t.Fatalf("%s round-trip changed decomposition node keys\n doc:\n%s", rt.via, doc)
			}
		}
	})
}

func sameNodeKeys(a, b *Decomposition) bool {
	if a.Key != b.Key || len(a.Preds) != len(b.Preds) {
		return false
	}
	for i := range a.Preds {
		if a.Preds[i].Key != b.Preds[i].Key {
			return false
		}
	}
	return true
}
