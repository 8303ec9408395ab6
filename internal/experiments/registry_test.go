package experiments

import (
	"bytes"
	"context"
	"encoding/json"
	"net/url"
	"testing"
)

// TestTextSurvivesTheEnvelope pins that the CLI's stdout and the
// service's ?format=text body are one rendering: every entry's result at
// default parameters renders the same text, and the same CSV, after a
// JSON round trip (the envelope stores the JSON; the service renders
// from its decoding).
func TestTextSurvivesTheEnvelope(t *testing.T) {
	for _, e := range Registry() {
		_, run, err := e.Prepare(url.Values{})
		if err != nil {
			t.Fatalf("%s at defaults: %v", e.Name, err)
		}
		v, err := run(context.Background(), shared)
		if err != nil {
			t.Fatalf("%s: %v", e.Name, err)
		}
		raw, err := json.Marshal(v)
		if err != nil {
			t.Fatalf("%s: %v", e.Name, err)
		}
		back := e.Fresh()
		if err := json.Unmarshal(raw, back); err != nil {
			t.Fatalf("%s: decoding its own JSON: %v", e.Name, err)
		}
		if got, want := back.String(), v.String(); got != want {
			t.Errorf("%s: text after the round trip differs:\n--- computed:\n%s\n--- decoded:\n%s", e.Name, want, got)
		}
		var before, after bytes.Buffer
		if err := WriteCSV(&before, v); err != nil {
			t.Fatal(err)
		}
		if err := WriteCSV(&after, back); err != nil {
			t.Fatal(err)
		}
		if before.String() != after.String() {
			t.Errorf("%s: csv after the round trip differs", e.Name)
		}
	}
}
