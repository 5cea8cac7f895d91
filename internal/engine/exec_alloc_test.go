package engine_test

import (
	"testing"

	"dbtoaster/internal/compiler"
	"dbtoaster/internal/engine"
	"dbtoaster/internal/workload"
)

// applyAllocsPerEvent replays a warm-up prefix and then measures the average
// allocations of Apply over a rotating window of subsequent events, so the
// measurement reflects the steady-state per-event hot path rather than view
// growth from a cold start.
func applyAllocsPerEvent(t *testing.T, query string, mode engine.ExecMode) float64 {
	t.Helper()
	spec, ok := workload.Get(query)
	if !ok {
		t.Fatalf("unknown query %s", query)
	}
	eng := newEngineFor(t, spec, compiler.ModeDBToaster)
	eng.SetExecMode(mode)
	events := spec.Stream(0.2, 1)
	const warm, window = 200, 300
	if len(events) < warm+window {
		t.Fatalf("stream too short for %s: %d events", query, len(events))
	}
	for _, ev := range events[:warm] {
		if err := eng.Apply(ev); err != nil {
			t.Fatal(err)
		}
	}
	i := 0
	return testing.AllocsPerRun(window, func() {
		if err := eng.Apply(events[warm+i%window]); err != nil {
			t.Fatal(err)
		}
		i++
	})
}

// TestCompiledApplyAllocs asserts the allocation-lean property of the
// compiled per-event hot path: at least a 50% allocs/op reduction against the
// interpreter on every measured query, and an (almost) allocation-free steady
// state for the simple aggregate queries, where every map touch goes through
// reused key buffers.
func TestCompiledApplyAllocs(t *testing.T) {
	for _, tc := range []struct {
		query string
		// maxCompiled bounds the compiled steady-state allocs/op; a little
		// slack absorbs occasional map-bucket growth inside the views.
		maxCompiled float64
	}{
		{"Q1", 1},
		{"Q6", 1},
		{"Q12", 1},
		{"Q3", 1},
		{"VWAP", 8},
	} {
		interp := applyAllocsPerEvent(t, tc.query, engine.ExecInterp)
		compiled := applyAllocsPerEvent(t, tc.query, engine.ExecCompiled)
		t.Logf("%-6s allocs/op: interp=%.1f compiled=%.1f", tc.query, interp, compiled)
		if compiled > tc.maxCompiled {
			t.Errorf("%s: compiled path allocates %.1f/op, want <= %.1f", tc.query, compiled, tc.maxCompiled)
		}
		if compiled > interp/2 {
			t.Errorf("%s: compiled path allocates %.1f/op, more than half of the interpreter's %.1f",
				tc.query, compiled, interp)
		}
	}
}

// batchAllocsPerWindow warms an engine with the first windows of the query's
// stream and then measures the average allocations of ApplyBatch over the
// following distinct 256-event windows, so the figure is the steady-state
// cost of one batched window (batches are built outside the measurement).
func batchAllocsPerWindow(t *testing.T, query string, shards int) float64 {
	t.Helper()
	spec, ok := workload.Get(query)
	if !ok {
		t.Fatalf("unknown query %s", query)
	}
	eng := newEngineFor(t, spec, compiler.ModeDBToaster)
	eng.SetShards(shards)
	const window, warm, runs = 256, 8, 12
	var batches []*engine.Batch
	for _, w := range spec.StreamBatches(1, 1, window) {
		batches = append(batches, engine.NewBatch(w))
	}
	if len(batches) < warm+runs+1 {
		t.Fatalf("stream too short for %s: %d windows", query, len(batches))
	}
	for _, b := range batches[:warm] {
		if err := eng.ApplyBatch(b); err != nil {
			t.Fatal(err)
		}
	}
	i := warm
	return testing.AllocsPerRun(runs, func() {
		if err := eng.ApplyBatch(batches[i]); err != nil {
			t.Fatal(err)
		}
		i++
	})
}

// TestBatchWindowAllocs pins the allocation-lean batched window: delta
// stores, chunk lists and merge bookkeeping persist across windows and row-
// executor index probes pass prebuilt callbacks, so a steady-state window
// allocates little beyond the tuples of newly created delta and view entries.
// Each bound is half of what a window cost when every window built its delta
// stores afresh. Under the race detector the windows still run (the test is
// part of the race suite) but the counts are not checked.
func TestBatchWindowAllocs(t *testing.T) {
	for _, tc := range []struct {
		query     string
		maxAllocs [2]float64 // at shards 1 and 2
	}{
		{"Q1", [2]float64{11, 26}},
		{"Q6", [2]float64{6, 17}},
		{"Q12", [2]float64{71, 104}},
		{"Q3", [2]float64{530, 627}},
	} {
		for si, shards := range []int{1, 2} {
			got := batchAllocsPerWindow(t, tc.query, shards)
			t.Logf("%-4s shards=%d allocs/window: %.1f", tc.query, shards, got)
			if !raceEnabled && got > tc.maxAllocs[si] {
				t.Errorf("%s at shards=%d: a window allocates %.1f, want <= %.0f",
					tc.query, shards, got, tc.maxAllocs[si])
			}
		}
	}
}
