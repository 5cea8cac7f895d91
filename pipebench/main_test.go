package main

import (
	"bytes"
	"encoding/json"
	"strconv"
	"strings"
	"testing"
	"time"
)

// tinySize shrinks each workload's closed-loop input so a whole run takes
// about a second.
var tinySize = map[string]string{"tpch_batch": "0.05", "finance_tick": "0.2", "serve_durable": "1"}

// runTiny runs one workload at a tiny size and returns the exit status and
// the parsed last line of its output.
func runTiny(t *testing.T, name string, trace int, extra ...string) (int, output) {
	t.Helper()
	args := append([]string{
		"--workload", name, "--seed", "3", "--seconds", "0.3", "--size", tinySize[name],
		"--trace", strconv.Itoa(trace), "--spec", "../BENCHMARK.json", "--spans", t.TempDir(),
	}, extra...)
	t.Setenv("TMPDIR", t.TempDir())
	var out bytes.Buffer
	code, err := mainErr(args, &out)
	if err != nil {
		t.Fatalf("%s: %v\n%s", name, err, out.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res output
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s: last line is not the result: %v\n%s", name, err, out.String())
	}
	return code, res
}

// TestTinyRunsEmitEveryMetric runs every workload untraced and traced and
// checks that each emits every metric BENCHMARK.json lists, passes its
// gates, and fails nothing.
func TestTinyRunsEmitEveryMetric(t *testing.T) {
	sp, err := readSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, def := range workloads {
		for trace, listed := range [][]metricSpec{sp.EndToEnd, sp.PerLayer} {
			code, res := runTiny(t, def.name, trace)
			if code != 0 || !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%d: exit %d, correct %v, %d of %d failed", def.name, trace, code, res.Correct, res.Failed, res.Attempted)
			}
			if len(res.Metrics) != len(listed) {
				t.Errorf("%s trace=%d: %d metrics, BENCHMARK.json lists %d", def.name, trace, len(res.Metrics), len(listed))
			}
			for _, m := range listed {
				v, ok := res.Metrics[m.Name]
				if !ok || v.Unit != m.Unit {
					t.Errorf("%s trace=%d: metric %s missing or unit %q, want %q", def.name, trace, m.Name, v.Unit, m.Unit)
				}
			}
		}
	}
}

// TestCorruptionTripsGates corrupts one result on purpose and checks that a
// gate catches it: a window the engines never applied (REP), a client copy
// that differs from the snapshot, and a log that lost its newest segment
// (recovered engines differ from the live one).
func TestCorruptionTripsGates(t *testing.T) {
	for _, c := range []struct{ workload, inject string }{
		{"tpch_batch", "drop-window"},
		{"serve_durable", "drop-window"},
		{"finance_tick", "client-copy"},
		{"serve_durable", "log-tail"},
	} {
		code, res := runTiny(t, c.workload, 0, "--inject", c.inject)
		if code != 1 || res.Correct || res.Failed == 0 {
			t.Errorf("%s with %s: exit %d, correct %v, %d failed; want the gates to fail the run",
				c.workload, c.inject, code, res.Correct, res.Failed)
		}
	}
}

// TestReceipts matches change-stream batches to windows: an exact batch
// carries the window that produced its position, a window that changed
// nothing gets no receipt, and a coalesced batch carries every window since
// the previous batch.
func TestReceipts(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	wt := []windowTimes{
		{due: at(0), done: at(1), pos: 10},
		{due: at(10), done: at(11), pos: 20}, // leaves the view unchanged
		{due: at(20), done: at(21), pos: 30},
		{due: at(30), done: at(31), pos: 40},
		{due: at(40), done: at(41), pos: 40}, // events the queries ignore
		{due: at(50), done: at(51), pos: 50},
	}
	recs := []received{
		{at: at(0), events: 0, initial: true},
		{at: at(2), events: 10},
		{at: at(23), events: 30},
		{at: at(55), events: 50, coalesced: 1},
	}
	got, lag := receipts(wt, recs)
	want := []float64{2, 3, 25, 5}
	wantLag := []float64{1, 2, 24, 4}
	if len(got) != len(want) {
		t.Fatalf("receipts %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] || lag[i] != wantLag[i] {
			t.Fatalf("receipts %v lags %v, want %v and %v", got, lag, want, wantLag)
		}
	}
}

// TestSelfTimes checks that a span's self time excludes the union of its
// children's intervals, overlapping children counted once.
func TestSelfTimes(t *testing.T) {
	tr := newTracer("test")
	tr.spans = []span{
		{ID: 0, Parent: -1, Layer: "bench", Start: 0, End: 100},
		{ID: 1, Parent: 0, Layer: "engine", Start: 10, End: 40},
		{ID: 2, Parent: 0, Layer: "serve", Start: 30, End: 50},
		{ID: 3, Parent: 1, Layer: "wal", Start: 20, End: 25},
	}
	got := tr.selfTimes()
	want := map[string]float64{"bench": 60e-9, "engine": 25e-9, "serve": 20e-9, "wal": 5e-9}
	for layer, w := range want {
		if d := got[layer] - w; d > 1e-15 || d < -1e-15 {
			t.Errorf("%s self time %g, want %g", layer, got[layer], w)
		}
	}
}
