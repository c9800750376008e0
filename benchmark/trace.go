package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// Layers a span can belong to: the repo's modules, plus glueLayer for the
// benchmark's own time between the calls it makes.
const (
	layerSQL      = "sql"
	layerDAG      = "dag"
	layerPhysical = "physical"
	layerCore     = "core"
	layerCache    = "cache"
	layerExec     = "exec" // includes internal/storage, which exec calls into
	layerServer   = "server"
	glueLayer     = "bench"
)

// span is one timed call into a layer. Spans of one batch (or, for the
// service, one request) share Batch; Parent is the span that caused this
// one, or -1.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Batch   int    `json:"batch"`
	Name    string `json:"name"`
	Layer   string `json:"layer"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. It is used from one
// goroutine: the traced pipeline steps a batch at a time, and the service's
// spans are rebuilt after the load has stopped.
type tracer struct {
	t0      time.Time
	spans   []span
	batches int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// newBatch returns the identifier the spans of one more batch share.
func (t *tracer) newBatch() int {
	t.batches++
	return t.batches
}

func (t *tracer) start(name, layer string, parent, batch int) int {
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Batch: batch,
		Name: name, Layer: layer, StartNs: time.Since(t.t0).Nanoseconds()})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) { t.spans[id].EndNs = time.Since(t.t0).Nanoseconds() }

// add records a span whose interval is already known.
func (t *tracer) add(name, layer string, parent, batch int, start, end time.Time) int {
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Batch: batch,
		Name: name, Layer: layer, StartNs: start.Sub(t.t0).Nanoseconds(), EndNs: end.Sub(t.t0).Nanoseconds()})
	return len(t.spans) - 1
}

// selfSeconds sums, per span name, each span's duration minus the part its
// children cover.
func (t *tracer) selfSeconds() (byName, byLayer map[string]float64) {
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.EndNs - s.StartNs
		}
	}
	byName, byLayer = map[string]float64{}, map[string]float64{}
	for _, s := range t.spans {
		self := float64(s.EndNs-s.StartNs-child[s.ID]) / 1e9
		byName[s.Name] += self
		byLayer[s.Layer] += self
	}
	return byName, byLayer
}

// coverage is the share of the root spans' time that layer spans account
// for; the rest is the benchmark's own glue.
func (t *tracer) coverage() float64 {
	var roots int64
	for _, s := range t.spans {
		if s.Parent < 0 {
			roots += s.EndNs - s.StartNs
		}
	}
	if roots == 0 {
		return 0
	}
	_, byLayer := t.selfSeconds()
	return 1 - byLayer[glueLayer]/(float64(roots)/1e9)
}

func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
