package main

import (
	"fmt"
	"os"
	"sort"

	"dbtoaster/internal/engine"
)

// result collects one workload run's measurements, operation counts and
// gate outcomes.
type result struct {
	e2e    map[string]float64
	layer  map[string]float64
	counts map[string]int // sample counts behind the percentiles
	inputs map[string]any

	setup, compile, init, dial []float64

	attempted, failed int
	gates             []gateOutcome

	spans *tracer // the traced run's spans, nil untraced
}

type gateOutcome struct {
	name string
	err  error
}

func newResult() *result {
	return &result{e2e: map[string]float64{}, layer: map[string]float64{}, counts: map[string]int{}, inputs: map[string]any{}}
}

// attempt counts one call into the system; a failed call counts as failed.
func (r *result) attempt(what string, err error) {
	r.attempted++
	if err != nil {
		if r.failed < 5 {
			fmt.Fprintf(os.Stderr, "pipebench: %s: %v\n", what, err)
		}
		r.failed++
	}
}

// gate counts one correctness check; a failed gate counts as failed and
// makes the run incorrect.
func (r *result) gate(name string, err error) {
	r.gates = append(r.gates, gateOutcome{name, err})
	r.attempt("gate "+name, err)
}

func (r *result) correct() bool {
	if r.failed > 0 {
		return false
	}
	for _, g := range r.gates {
		if g.err != nil {
			return false
		}
	}
	return len(r.gates) > 0
}

// finishSetup turns the set-up samples into their medians.
func (r *result) finishSetup() {
	r.e2e["setup_s"] = median(r.setup)
	r.counts["setup"] = len(r.setup)
	r.layer["compiler.compile_s"] = median(r.compile)
	r.layer["engine.init_s"] = median(r.init)
	r.layer["serve.dial_ms"] = median(r.dial)
}

// summarize sets the end-to-end metrics from the passes of a run, each the
// median over passes of that pass's figure, so one pass disturbed by the
// host does not decide a run. writers are the passes whose writer loops give
// throughput, refresh latency and heap; served are the durable, served
// passes. untraced are the writer passes a traced run ran without its
// tracer.
func (r *run) summarize(writers []passStats, served []*servedStats, untraced []passStats) {
	rate := func(ps passStats) float64 { return ps.events / ps.wall.Seconds() }
	overWriters := func(f func(ps passStats) float64) float64 {
		v := make([]float64, len(writers))
		for i, ps := range writers {
			v[i] = f(ps)
		}
		return median(v)
	}
	overServed := func(pick func(st *servedStats) []float64, q float64) float64 {
		v := make([]float64, len(served))
		for i, st := range served {
			v[i] = quantile(pick(st), q)
		}
		return median(v)
	}
	refresh := func(q float64) func(ps passStats) float64 {
		return func(ps passStats) float64 { return quantile(ps.refresh, q) }
	}
	fresh := func(st *servedStats) []float64 { return st.fresh }
	receipt := func(st *servedStats) []float64 { return st.receipt }
	reads := func(st *servedStats) []float64 { return st.reads }
	all := &servedStats{}
	for _, st := range served {
		all.add(st)
	}
	agg := mergePasses(writers)

	// The tails, reads and recovery time are end-to-end figures too, but on
	// a 2-vCPU host they spread 11-50% from run to run, too wide for a gate
	// with a bound of 25% or less; they are reported beside the layer that
	// dominates them, without a bound.
	e, l, c := r.res.e2e, r.res.layer, r.res.counts
	e["events_per_s"] = overWriters(rate)
	e["refresh_p50_ms"] = overWriters(refresh(0.50))
	l["engine.refresh_p99_ms"] = overWriters(refresh(0.99))
	e["heap_mb"] = overWriters(func(ps passStats) float64 { return ps.heapMB })
	e["fresh_p50_ms"] = overServed(fresh, 0.50)
	l["engine.fresh_p99_ms"] = overServed(fresh, 0.99)
	e["receipt_p50_ms"] = overServed(receipt, 0.50)
	l["serve.receipt_p99_ms"] = overServed(receipt, 0.99)
	l["serve.read_p50_ms"] = overServed(reads, 0.50)
	l["serve.read_p90_ms"] = overServed(reads, 0.90)
	l["wal.recover_s"] = median(all.recover)
	c["events"], c["heap"] = len(writers), len(writers)
	c["refresh"], c["fresh"], c["receipt"], c["read"] = len(agg.refresh), len(all.fresh), len(all.receipt), len(all.reads)
	r.res.inputs["recoveries"] = len(all.recover)
	r.res.inputs["writer_passes"] = len(writers)
	r.res.inputs["served_passes"] = len(served)

	r.passLayers(agg)
	r.servedLayers(all)
	if len(untraced) > 0 {
		plain := make([]float64, len(untraced))
		for i, ps := range untraced {
			plain[i] = rate(ps)
		}
		r.res.layer["trace.events_per_s"] = e["events_per_s"]
		r.res.layer["trace.overhead_events_per_s"] = e["events_per_s"] - median(plain)
	}
}

// servedLayers reports the WAL and serve counters of the durable passes,
// per pass.
func (r *run) servedLayers(st *servedStats) {
	l := r.res.layer
	n := float64(max(st.passes, 1))
	if st.logged > 0 {
		l["wal.log_bytes_per_event"] = float64(st.logBytes) / float64(st.logged)
	}
	l["wal.checkpoints"] = float64(st.ckpts) / n
	l["wal.checkpoint_mb"] = float64(st.ckptBytes) / (1 << 20) / n
	l["wal.chain_len"] = median(st.chainLen)
	l["wal.replayed_events"] = median(st.replayed)
	l["wal.recover_chain_len"] = median(st.recChain)

	l["serve.wire_lag_p50_ms"] = quantile(st.wireLag, 0.50)
	l["serve.wire_lag_p99_ms"] = quantile(st.wireLag, 0.99)
	l["serve.delivered"] = float64(st.delivered) / n
	l["serve.coalesced"] = float64(st.coalesced) / n
	l["serve.coalesce_ratio"] = 0
	if t := st.delivered + st.coalesced; t > 0 {
		l["serve.coalesce_ratio"] = float64(st.coalesced) / float64(t)
	}
	if len(st.reads) > 0 {
		l["serve.read_bytes"] = float64(st.readBytes) / float64(len(st.reads))
	}
	if len(st.writer.late) > 0 {
		l["bench.late_p99_ms"] = quantile(st.writer.late, 0.99)
	}
}

// passLayers reports the writer loop's engine-side counters.
func (r *run) passLayers(ps passStats) {
	l := r.res.layer
	if ps.events > 0 {
		l["engine.allocs_per_event"] = float64(ps.mallocs) / ps.events
		l["engine.alloc_bytes_per_event"] = float64(ps.allocBytes) / ps.events
	}
	l["engine.gc_cycles"] = float64(ps.gcCycles)
	l["engine.gc_pause_ms"] = ms(ps.gcPause)
	if ps.wall > 0 {
		l["engine.busy_share"] = ps.busy.Seconds() / ps.wall.Seconds()
		l["engine.newbatch_share"] = ps.newB.Seconds() / ps.wall.Seconds()
	}
}

// engineLayers reports the compiled program and the views of an engine
// after its loop, through the engine's stats getters.
func (r *run) engineLayers(eng *engine.Engine, parent int) {
	l := r.res.layer
	prog := eng.Program()
	stmts := 0
	for _, t := range prog.Triggers {
		stmts += len(t.Stmts)
	}
	l["compiler.maps"] = float64(len(prog.Maps))
	l["compiler.statements"] = float64(stmts)

	sp := r.tr.begin("engine.ExecStats", parent)
	l["exec.interp_stmts"] = float64(eng.ExecStats().InterpStmts)
	r.tr.end(sp)
	sp = r.tr.begin("engine.MemoryBytes", parent)
	mem := eng.MemoryBytes()
	r.tr.end(sp)
	sp = r.tr.begin("engine.ViewSizes", parent)
	entries := 0
	for _, n := range eng.ViewSizes() {
		entries += n
	}
	r.tr.end(sp)
	l["gmr.view_mb"] = float64(mem) / (1 << 20)
	l["gmr.entries"] = float64(entries)
	if entries > 0 {
		l["gmr.bytes_per_entry"] = float64(mem) / float64(entries)
	}
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between the
// closest ranks (0 for no samples).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}
