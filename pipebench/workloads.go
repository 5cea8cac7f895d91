package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"dbtoaster/internal/engine"
	"dbtoaster/internal/gmr"
	"dbtoaster/internal/wal"
	"dbtoaster/internal/workload"
)

// workloadDef is one benchmark workload: a query set compiled together, the
// stream that feeds it, and how the stream is applied.
type workloadDef struct {
	name    string
	queries []string
	// window is the number of events per ApplyBatch call; 1 applies each
	// event on its own through Apply.
	window int
	// sessions closed-loop streams of the given scale
	// (workload.MultiSpec.Stream) make up the input, each from its own
	// seed; every pass replays one session on a fresh engine. An open-loop
	// stream is one session sized by rate × seconds instead.
	sessions int
	scale    float64
	// rate is the offered load in events/s; 0 runs a closed loop.
	rate float64
	// streamQuery is the query one remote serve.Client subscribes to, and
	// readQuery the one a snapshot reader fetches over HTTP.
	streamQuery, readQuery string
}

// The workloads, and why each is here, are described in BENCHMARK.json.
var workloads = []workloadDef{
	{
		name: "tpch_batch",
		// Q4, Q17a, Q18a and Q22a are left out: their re-evaluation cost
		// grows faster than the stream and would dominate the measurement.
		queries: []string{"Q1", "Q3", "Q6", "Q10", "Q11a", "Q12", "SSB4"},
		window:  256, sessions: 1, scale: 20,
		streamQuery: "Q3", readQuery: "Q1",
	},
	{
		name: "finance_tick",
		// MST and PSP are left out: their cost per event grows faster than
		// linearly. VWAP's cost per event grows with the spread of the
		// session's price walk, which varies widely from seed to seed
		// (events/s over one 8,000-event session ranged 350-1,600 across
		// seeds), so the input is many short sessions and every run
		// averages over all of them.
		queries: []string{"AXF", "BSP", "BSV", "VWAP"},
		window:  1, sessions: 32, scale: 0.25,
		streamQuery: "BSP", readQuery: "VWAP",
	},
	{
		name:    "serve_durable",
		queries: []string{"Q1", "Q3", "Q10", "Q12"},
		window:  100, sessions: 1, rate: 10000,
		streamQuery: "Q3", readQuery: "Q1",
	},
}

func workloadByName(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// Settings shared by every workload.
const (
	// setupReps is how many times a run sets the workload up from scratch;
	// setup_s is the median.
	setupReps = 5
	// recoverReps is how many fresh engines recover from the durable
	// directory; wal.recover_s is the median over the run.
	recoverReps = 3
	// readInterval paces the snapshot reader: one FetchSnapshot due every
	// 50 ms (20 reads/s), beside the writer.
	readInterval = 50 * time.Millisecond
	// openPassSeconds is the length of one open-loop pass.
	openPassSeconds = 5
	// quiescentReads is how many snapshots a closed loop's durable pass
	// fetches after its writer loop.
	quiescentReads = 200
	// checkpointSpacing spaces periodic checkpoints at about 2/11 of a
	// durable pass, so the pass takes five of them and ends with roughly its
	// last 1/11 only in the log, which recovery replays.
	checkpointSpacing = 2.0 / 11
	// gateWait bounds how long the client may take to catch up with a
	// quiescent engine before the gate fails.
	gateWait = 10 * time.Second
)

// options are the command-line settings of one run.
type options struct {
	seed    int64
	seconds float64
	trace   bool
	// size multiplies the closed-loop stream scale; the benchmark's own
	// tests run at a small fraction.
	size float64
	// inject deliberately corrupts one result so a test can show that the
	// gates catch it: "drop-window", "client-copy" or "log-tail".
	inject string
}

// run carries one workload run's state.
type run struct {
	def workloadDef
	o   options
	tr  *tracer
	ms  *workload.MultiSpec
	dir string
	res *result
	// dirs counts the durable directories handed out under dir.
	dirs int
}

// labeled is one engine's query results after it replayed a session, kept
// for the REP gate.
type labeled struct {
	label   string
	session int
	res     map[string]*gmr.GMR
}

// runWorkload runs one workload end to end and returns its result. An error
// means the run could not be carried out at all; failed operations and
// gates are counted in the result instead.
func runWorkload(def workloadDef, o options) (*result, error) {
	r := &run{def: def, o: o, res: newResult()}
	if o.trace {
		r.tr = newTracer(fmt.Sprintf("%s-seed%d-%d", def.name, o.seed, time.Now().UnixNano()))
	}
	root := r.tr.begin("bench.run", -1)
	// The durable directories live under $TMPDIR, which run.sh points
	// into the checkout.
	dir, err := os.MkdirTemp("", "pipebench-"+def.name+"-")
	if err != nil {
		return nil, fmt.Errorf("durable directory: %w", err)
	}
	defer os.RemoveAll(dir)
	r.dir = dir

	if r.ms, err = workload.Combine(def.queries); err != nil {
		return nil, err
	}
	sp := r.tr.begin("workload.Stream", root)
	t0 := time.Now()
	sessions := r.sessions()
	r.res.layer["workload.gen_s"] = time.Since(t0).Seconds()
	r.tr.end(sp)
	n := 0
	for _, s := range sessions {
		n += len(s)
	}
	r.res.inputs["sessions"] = len(sessions)
	r.res.inputs["events"] = n
	r.res.inputs["window"] = def.window

	var results []labeled
	if def.rate == 0 {
		results, err = r.closedLoop(sessions, root)
	} else {
		results, err = r.openLoop(sessions[0], root)
	}
	if err != nil {
		return nil, err
	}
	if err := r.repGate(sessions, results, root); err != nil {
		return nil, err
	}
	r.res.finishSetup()
	r.tr.end(root)
	r.res.spans = r.tr
	if r.tr != nil {
		for layer, s := range r.tr.selfTimes() {
			r.res.layer[layer+".self_s"] = s
		}
	}
	return r.res, nil
}

// sessions generates the workload's input from the seed: session j of a
// closed loop comes from seed × sessions + j. An open-loop pass needs rate ×
// openPassSeconds events (fewer when the whole run is shorter); the TPC-H
// generator yields about 6,000 events per unit of scale, so it is asked for
// a little more and cut.
func (r *run) sessions() [][]engine.Event {
	if r.def.rate == 0 {
		out := make([][]engine.Event, r.def.sessions)
		for j := range out {
			out[j] = r.ms.Stream(r.def.scale*r.o.size, r.o.seed*int64(r.def.sessions)+int64(j))
		}
		return out
	}
	need := int(r.def.rate * min(openPassSeconds, r.o.seconds))
	for scale := float64(need) / 5000; ; scale *= 1.5 {
		if events := r.ms.Stream(scale, r.o.seed); len(events) >= need {
			return [][]engine.Event{events[:need]}
		}
	}
}

// durableOpts arms the log with delta checkpoints, in a directory of its
// own. The open loop syncs every commit (the default policy); the closed
// loops hand commits to the log without syncing them, which keeps the disk's
// sync latency, only serve_durable's to measure, out of their figures.
func (r *run) durableOpts(events int) engine.DurabilityOptions {
	r.dirs++
	// Checkpoints fall due at window boundaries, every `every` windows;
	// a spacing that divides the pass would leave no log tail to replay.
	windows := (events + r.def.window - 1) / r.def.window
	every := max(1, int(float64(windows)*checkpointSpacing))
	for every > 1 && windows%every == 0 {
		every--
	}
	o := engine.DurabilityOptions{
		Dir:              filepath.Join(r.dir, fmt.Sprintf("d%d", r.dirs)),
		CheckpointEvery:  uint64(every * r.def.window),
		DeltaCheckpoints: true,
	}
	if r.def.rate == 0 {
		o.Sync = wal.SyncNone
	}
	return o
}

// closedLoop runs tpch_batch and finance_tick. Passes cycle through two
// on an unobserved, memory-only engine (throughput, refresh latency, heap)
// and one on a durable, served engine (freshness, receipt, reads,
// recovery), each replaying the next session on a fresh engine, until
// --seconds have passed. Interleaving lets both kinds of pass see the same
// conditions on the host.
func (r *run) closedLoop(sessions [][]engine.Event, root int) ([]labeled, error) {
	windows := make([][][]engine.Event, len(sessions))
	for i, s := range sessions {
		windows[i] = workload.Batches(s, r.def.window)
	}
	// Every unobserved pass sets up its engine; these add samples for
	// runs with few passes.
	for i := 1; i < setupReps; i++ {
		if _, err := r.setupEngine(root); err != nil {
			return nil, err
		}
	}
	var writers, untraced []passStats
	var served []*servedStats
	var results []labeled
	var last *engine.Engine
	start := time.Now()
	for p := 0; p < 3 || time.Since(start).Seconds() < r.o.seconds; p++ {
		k := p % len(sessions)
		var eng *engine.Engine
		if p%3 != 2 {
			var err error
			if eng, err = r.setupEngine(root); err != nil {
				return nil, err
			}
			// A traced run leaves every other unobserved pass untraced; the
			// difference between the two is the tracing overhead.
			tr := r.tr
			if p%3 == 1 {
				tr = nil
			}
			ps := r.unobservedPass(eng, windows[k], root, tr, p == 0)
			ps.heapMB = liveHeapMB()
			if r.tr == nil || tr != nil {
				writers = append(writers, ps)
			} else {
				untraced = append(untraced, ps)
			}
			last = eng
		} else {
			st, e, err := r.durablePass(windows[k], r.durableOpts(len(sessions[k])), root, r.tr, false, false)
			if err != nil {
				return nil, err
			}
			served = append(served, st)
			eng = e
		}
		res, err := queryResults(eng, r.ms.Names)
		if err != nil {
			return nil, err
		}
		results = append(results, labeled{fmt.Sprintf("pass %d (session %d)", p+1, k+1), k, res})
	}
	r.summarize(writers, served, untraced)
	r.engineLayers(last, root)
	return results, nil
}

// openLoop runs serve_durable: passes of openPassSeconds at the offered
// rate, each on a fresh durable, served engine, until --seconds have
// passed; the passes' writer loops are the workload's throughput and refresh
// figures.
func (r *run) openLoop(events []engine.Event, root int) ([]labeled, error) {
	windows := workload.Batches(events, r.def.window)
	// Every pass sets up its engine; these add samples for runs with few
	// passes.
	for i := 1; i < setupReps; i++ {
		o := r.durableOpts(len(events))
		s, err := r.setupServed(o, root, r.tr, true)
		if err != nil {
			return nil, err
		}
		if err := s.shutdown(root, r.tr); err != nil {
			return nil, err
		}
		os.RemoveAll(o.Dir)
	}
	var writers, untraced []passStats
	var served []*servedStats
	var results []labeled
	var live *engine.Engine
	start := time.Now()
	for p := 0; p < 2 || time.Since(start).Seconds() < r.o.seconds; p++ {
		// A traced run leaves every other pass untraced; the difference
		// between the two is the tracing overhead.
		tr := r.tr
		if p%2 == 1 {
			tr = nil
		}
		st, eng, err := r.durablePass(windows, r.durableOpts(len(events)), root, tr, true, p == 0)
		if err != nil {
			return nil, err
		}
		if r.tr == nil || tr != nil {
			writers = append(writers, st.writer)
			served = append(served, st)
		} else {
			untraced = append(untraced, st.writer)
		}
		res, err := queryResults(eng, r.ms.Names)
		if err != nil {
			return nil, err
		}
		results = append(results, labeled{fmt.Sprintf("pass %d", p+1), 0, res})
		live = eng
	}
	r.summarize(writers, served, untraced)
	r.engineLayers(live, root)
	return results, nil
}

// repGate checks every kept result against REP re-evaluation on the final
// database of its session. With the drop-window injection the first pass
// missed one window the reference still holds.
func (r *run) repGate(sessions [][]engine.Event, results []labeled, root int) error {
	sp := r.tr.begin("bench.REP", root)
	defer r.tr.end(sp)
	want := make([]map[string]*gmr.GMR, len(sessions))
	for _, l := range results {
		if want[l.session] == nil {
			w, err := repResults(r.ms, sessions[l.session])
			if err != nil {
				return err
			}
			want[l.session] = w
		}
		r.res.gate("REP equals "+l.label, checkResults(l.res, want[l.session]))
	}
	return nil
}

func liveHeapMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}
