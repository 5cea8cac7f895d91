package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call across a layer boundary, recorded by the benchmark
// around its own call into the layer's public function.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a root span
	Name   string `json:"name"`
	Layer  string `json:"layer"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
	Run    string `json:"run"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so untraced runs pay one nil check per call site.
type tracer struct {
	run   string
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer(run string) *tracer {
	return &tracer{run: run, epoch: time.Now()}
}

// layerOf maps a span name ("engine.ApplyBatch") to the module whose work it
// times. Calls on the engine that only drive the write-ahead log, or only
// read a layer's counters, are charged to that layer.
func layerOf(name string) string {
	switch name {
	case "engine.SetDurability", "engine.CloseDurability", "engine.Recover", "engine.LogStats":
		return "wal"
	case "engine.ExecStats":
		return "exec"
	case "engine.MemoryBytes", "engine.ViewSizes":
		return "gmr"
	}
	if i := strings.IndexByte(name, '.'); i > 0 {
		return name[:i]
	}
	return "bench"
}

// begin opens a span and returns its id; end closes it.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Layer: layerOf(name), Start: now, Run: t.run})
	return id
}

func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// add records an already-timed call; hot loops time their calls anyway and
// hand the interval over instead of paying for a second pair of clock reads.
func (t *tracer) add(name string, parent int, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Name: name, Layer: layerOf(name),
		Start: start.Sub(t.epoch).Nanoseconds(), End: end.Sub(t.epoch).Nanoseconds(), Run: t.run})
	t.mu.Unlock()
}

// selfTimes returns, per layer, the summed self time of its spans in
// seconds: a span's duration minus the part of it its children cover.
// Children may overlap (the snapshot reader runs beside the writer), so the
// covered part is the union of the children's intervals.
func (t *tracer) selfTimes() map[string]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make([][]int, len(t.spans))
	for i, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	out := map[string]float64{}
	for i, s := range t.spans {
		if s.End < s.Start {
			continue // never closed: an aborted run
		}
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return t.spans[kids[a]].Start < t.spans[kids[b]].Start })
		covered, curStart, curEnd := int64(0), int64(-1), int64(-1)
		for _, k := range kids {
			lo, hi := max(t.spans[k].Start, s.Start), min(t.spans[k].End, s.End)
			if hi <= lo {
				continue
			}
			if lo > curEnd {
				covered += curEnd - curStart
				curStart, curEnd = lo, hi
			} else if hi > curEnd {
				curEnd = hi
			}
		}
		covered += curEnd - curStart
		out[s.Layer] += float64(s.End-s.Start-covered) / 1e9
	}
	return out
}

// write stores the spans as JSON lines, one span per line, after a header
// line carrying the run's fingerprint.
func (t *tracer) write(path string, header any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	if err := enc.Encode(header); err != nil {
		f.Close()
		return err
	}
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}
