package spans

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func TestWriteFileRoundTrips(t *testing.T) {
	r := NewRecorder()
	op := r.NextOp()
	t0 := time.Now()
	root := r.Add("op", t0, t0.Add(5*time.Millisecond), 0, op)
	r.Add("domestic.up", t0, t0.Add(time.Millisecond), root, op)
	path := filepath.Join(t.TempDir(), "out.json")
	if err := r.WriteFile(path, map[string]any{"seed": 7}); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Header map[string]any `json:"header"`
		Spans  []Span         `json:"spans"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("out.json is not valid JSON: %v\n%s", err, raw)
	}
	if len(doc.Spans) != 2 || doc.Header["seed"] != float64(7) {
		t.Fatalf("round trip lost data: %+v", doc)
	}
	child := doc.Spans[1]
	if child.Parent != root || child.OpID != op || child.End-child.Start != int64(time.Millisecond) {
		t.Errorf("child span = %+v, want parent %d, op %d, 1 ms long", child, root, op)
	}
}

func TestNilRecorderRecordsNothing(t *testing.T) {
	var r *Recorder
	if r.NextOp() != 0 || r.Add("x", time.Now(), time.Now(), 0, 0) != 0 || r.Spans() != nil {
		t.Error("nil recorder returned something")
	}
}
