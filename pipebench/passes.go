package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"dbtoaster/internal/compiler"
	"dbtoaster/internal/engine"
	"dbtoaster/internal/serve"
	"dbtoaster/internal/types"
)

// setupEngine compiles the query set (DBToaster mode, hash-consed by
// CompileSet) and initializes a memory-only engine; its time is one setup_s
// sample.
func (r *run) setupEngine(parent int) (*engine.Engine, error) {
	eng, compile, init, err := r.newEngine(parent, r.tr)
	if err != nil {
		return nil, err
	}
	r.res.setup = append(r.res.setup, (compile + init).Seconds())
	r.res.compile = append(r.res.compile, compile.Seconds())
	r.res.init = append(r.res.init, init.Seconds())
	return eng, nil
}

func (r *run) newEngine(parent int, tr *tracer) (eng *engine.Engine, compile, init time.Duration, err error) {
	sp := tr.begin("compiler.CompileSet", parent)
	t0 := time.Now()
	prog, _, err := compiler.CompileSet(r.ms.Queries, r.ms.Catalog, compiler.DefaultOptions())
	t1 := time.Now()
	tr.end(sp)
	if err != nil {
		return nil, 0, 0, fmt.Errorf("compile: %w", err)
	}
	sp = tr.begin("engine.Init", parent)
	eng = engine.New(prog)
	for name, g := range r.ms.Statics() {
		eng.LoadStatic(name, g)
	}
	err = eng.Init()
	t2 := time.Now()
	tr.end(sp)
	if err != nil {
		return nil, 0, 0, fmt.Errorf("init: %w", err)
	}
	return eng, t1.Sub(t0), t2.Sub(t1), nil
}

// passStats is what one pass of a writer loop measured.
type passStats struct {
	events  float64
	wall    time.Duration // loop start to the last call's return
	busy    time.Duration // inside Apply/ApplyBatch
	newB    time.Duration // inside NewBatch
	refresh []float64     // per Apply/ApplyBatch call, ms
	late    []float64     // open loop: how late each window started, ms
	heapMB  float64       // live heap after the loop, engine still held

	mallocs, allocBytes, gcCycles uint64
	gcPause                       time.Duration
}

// windowTimes is one writer call as the loop saw it.
type windowTimes struct {
	due, done time.Time
	pos       uint64 // Engine.Events() read after the call returned
}

func mergePasses(ps []passStats) passStats {
	var out passStats
	for _, p := range ps {
		out.events += p.events
		out.wall += p.wall
		out.busy += p.busy
		out.newB += p.newB
		out.refresh = append(out.refresh, p.refresh...)
		out.late = append(out.late, p.late...)
		out.mallocs += p.mallocs
		out.allocBytes += p.allocBytes
		out.gcCycles += p.gcCycles
		out.gcPause += p.gcPause
	}
	return out
}

// writerLoop applies the windows in order, as a closed loop (rate 0: each
// window is due when the previous one returns) or an open loop (window i is
// due at i × window / rate after the start, whether or not the engine kept
// up). dropped marks the window the drop-window injection skips.
func (r *run) writerLoop(eng *engine.Engine, windows [][]engine.Event, rate float64, parent int, tr *tracer, dropped int) (passStats, []windowTimes) {
	ps := passStats{refresh: make([]float64, 0, len(windows))}
	wt := make([]windowTimes, 0, len(windows))
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	due := start
	var last time.Time
	for i, w := range windows {
		if rate > 0 {
			due = start.Add(time.Duration(float64(i*r.def.window) / rate * float64(time.Second)))
			if d := time.Until(due); d > 0 {
				time.Sleep(d)
			}
		}
		t0 := time.Now()
		if rate > 0 {
			ps.late = append(ps.late, ms(t0.Sub(due)))
		}
		var err error
		t1, t2 := t0, t0
		switch {
		case i == dropped:
		case r.def.window == 1:
			err = eng.Apply(w[0])
			t2 = time.Now()
			tr.add("engine.Apply", parent, t1, t2)
		default:
			b := engine.NewBatch(w)
			t1 = time.Now()
			err = eng.ApplyBatch(b)
			t2 = time.Now()
			tr.add("engine.NewBatch", parent, t0, t1)
			tr.add("engine.ApplyBatch", parent, t1, t2)
		}
		r.res.attempt("apply", err)
		ps.events += float64(len(w))
		ps.newB += t1.Sub(t0)
		ps.busy += t2.Sub(t1)
		ps.refresh = append(ps.refresh, ms(t2.Sub(t1)))
		wt = append(wt, windowTimes{due: due, done: t2, pos: eng.Events()})
		if rate == 0 {
			due = t2
		}
		last = t2
	}
	ps.wall = last.Sub(start)
	runtime.ReadMemStats(&m1)
	ps.mallocs = m1.Mallocs - m0.Mallocs
	ps.allocBytes = m1.TotalAlloc - m0.TotalAlloc
	ps.gcCycles = uint64(m1.NumGC - m0.NumGC)
	ps.gcPause = time.Duration(m1.PauseTotalNs - m0.PauseTotalNs)
	return ps, wt
}

// unobservedPass streams every window through a memory-only engine nobody
// reads: no log, no Acquire, no Subscribe.
func (r *run) unobservedPass(eng *engine.Engine, windows [][]engine.Event, parent int, tr *tracer, inject bool) passStats {
	sp := tr.begin("bench.pass", parent)
	defer tr.end(sp)
	dropped := -1
	if inject && r.o.inject == "drop-window" {
		dropped = len(windows) / 2
	}
	ps, _ := r.writerLoop(eng, windows, 0, sp, tr, dropped)
	return ps
}

// served is a durable engine behind a serve.Server with one remote
// change-stream client attached.
type served struct {
	eng *engine.Engine
	srv *serve.Server
	cli *serve.Client
}

// setupServed builds a durable, served engine: compile, Init,
// SetDurability, serve.New, and one serve.Dial on the stream query. With
// sample set, its set-up time is one setup_s sample.
func (r *run) setupServed(o engine.DurabilityOptions, parent int, tr *tracer, sample bool) (*served, error) {
	t0 := time.Now()
	eng, compile, init, err := r.newEngine(parent, tr)
	if err != nil {
		return nil, err
	}
	sp := tr.begin("engine.SetDurability", parent)
	err = eng.SetDurability(o)
	tr.end(sp)
	if err != nil {
		return nil, fmt.Errorf("arm durability: %w", err)
	}
	sp = tr.begin("serve.New", parent)
	srv, err := serve.New(eng, serve.Options{})
	tr.end(sp)
	if err != nil {
		eng.CloseDurability()
		return nil, err
	}
	sp = tr.begin("serve.Dial", parent)
	t1 := time.Now()
	cli, err := serve.Dial(srv.StreamAddr(), r.def.streamQuery, serve.ClientOptions{})
	dial := time.Since(t1)
	tr.end(sp)
	if err != nil {
		srv.Shutdown(context.Background())
		eng.CloseDurability()
		return nil, err
	}
	s := &served{eng: eng, srv: srv, cli: cli}
	if sample {
		r.res.setup = append(r.res.setup, time.Since(t0).Seconds())
		r.res.compile = append(r.res.compile, compile.Seconds())
		r.res.init = append(r.res.init, init.Seconds())
	}
	r.res.dial = append(r.res.dial, ms(dial))
	return s, nil
}

// shutdown closes the client, drains the server, and closes the log without
// a final checkpoint — what a crash after the last commit leaves behind.
func (s *served) shutdown(parent int, tr *tracer) error {
	s.cli.Close()
	sp := tr.begin("serve.Shutdown", parent)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	err := s.srv.Shutdown(ctx)
	cancel()
	tr.end(sp)
	if err != nil {
		return fmt.Errorf("server shutdown: %w", err)
	}
	sp = tr.begin("engine.CloseDurability", parent)
	err = s.eng.CloseDurability()
	tr.end(sp)
	if err != nil {
		return fmt.Errorf("close durability: %w", err)
	}
	return nil
}

// servedStats is what durable, served passes measured, pooled over passes.
type servedStats struct {
	passes    int
	writer    passStats
	fresh     []float64 // window due -> its Apply/ApplyBatch returned, ms
	receipt   []float64 // window due -> the remote client held it, ms
	wireLag   []float64 // receipt - fresh of the same window, ms
	reads     []float64 // FetchSnapshot call, ms
	readBytes int       // JSON bytes of the successful snapshot reads
	recover   []float64 // Recover call, s
	replayed  []float64 // events each recovery replayed from the log
	recChain  []float64 // checkpoint links each recovery composed

	delivered, coalesced uint64 // stream view's hub counters
	logBytes, ckptBytes  int64
	logged               uint64
	ckpts                int64
	chainLen             []float64 // chain length at the end of each pass
}

func (a *servedStats) add(b *servedStats) {
	a.passes += b.passes
	a.writer = mergePasses([]passStats{a.writer, b.writer})
	a.fresh = append(a.fresh, b.fresh...)
	a.receipt = append(a.receipt, b.receipt...)
	a.wireLag = append(a.wireLag, b.wireLag...)
	a.reads = append(a.reads, b.reads...)
	a.readBytes += b.readBytes
	a.recover = append(a.recover, b.recover...)
	a.replayed = append(a.replayed, b.replayed...)
	a.recChain = append(a.recChain, b.recChain...)
	a.delivered += b.delivered
	a.coalesced += b.coalesced
	a.logBytes += b.logBytes
	a.ckptBytes += b.ckptBytes
	a.logged += b.logged
	a.ckpts += b.ckpts
	a.chainLen = append(a.chainLen, b.chainLen...)
}

// received is one change-stream batch as the client's consumer saw it.
type received struct {
	at        time.Time
	events    uint64
	coalesced uint32
	initial   bool
}

// durablePass runs the whole pipeline once: a durable, served engine takes
// the stream while a remote client follows the stream query, and a reader
// fetches the read query's snapshot. After the last window it checks the
// client's copy against a quiescent snapshot, stops without a final
// checkpoint, and recovers fresh engines from the directory, each of which
// must equal the live engine. With sample set, its
// set-up is one setup_s sample (the open loop, where it is the workload's
// set-up); the returned engine is the live one, for the REP gate.
func (r *run) durablePass(windows [][]engine.Event, o engine.DurabilityOptions, parent int, tr *tracer, sample, inject bool) (*servedStats, *engine.Engine, error) {
	sp := tr.begin("bench.durable", parent)
	defer tr.end(sp)
	s, err := r.setupServed(o, sp, tr, sample)
	if err != nil {
		return nil, nil, err
	}
	st := &servedStats{passes: 1}
	eng := s.eng

	var recs []received
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		for b := range s.cli.C {
			recs = append(recs, received{at: time.Now(), events: b.Events, coalesced: b.Coalesced, initial: b.Initial})
		}
	}()
	var readErrs []error
	read := func() {
		t0 := time.Now()
		res, err := serve.FetchSnapshot(s.srv.SnapshotAddr(), r.def.readQuery)
		t1 := time.Now()
		tr.add("serve.FetchSnapshot", sp, t0, t1)
		st.reads = append(st.reads, ms(t1.Sub(t0)))
		readErrs = append(readErrs, err)
		if err == nil {
			if b, err := json.Marshal(res); err == nil {
				st.readBytes += len(b)
			}
		}
	}
	// In the open loop a reader fetches a snapshot every readInterval
	// beside the writer. A closed-loop writer leaves no processor free, so
	// there the reads wait for the writer to finish instead of measuring
	// the scheduler.
	stop := make(chan struct{})
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		if r.def.rate == 0 {
			<-stop
			for i := 0; i < quiescentReads; i++ {
				read()
			}
			return
		}
		next := time.Now()
		timer := time.NewTimer(0)
		defer timer.Stop()
		for {
			timer.Reset(time.Until(next))
			select {
			case <-stop:
				return
			case <-timer.C:
			}
			read()
			// Reads are paced, not bursty: a reader that fell behind
			// resumes the schedule from now.
			if next = next.Add(readInterval); next.Before(time.Now()) {
				next = time.Now()
			}
		}
	}()

	dropped := -1
	if inject && r.o.inject == "drop-window" {
		dropped = len(windows) / 2
	}
	loop := tr.begin("bench.loop", sp)
	ws, wt := r.writerLoop(eng, windows, r.def.rate, loop, tr, dropped)
	tr.end(loop)
	// The forced collection also keeps the writer's garbage from being
	// collected under the closed loop's quiescent reads.
	ws.heapMB = liveHeapMB()
	close(stop)
	<-readerDone
	for _, err := range readErrs {
		r.res.attempt("snapshot read", err)
	}
	st.writer = ws
	for _, w := range wt {
		st.fresh = append(st.fresh, ms(w.done.Sub(w.due)))
	}

	r.res.gate("client copy equals quiescent snapshot", r.clientGate(s, sp, tr))
	hs := tr.begin("serve.StreamStats", sp)
	for _, h := range s.srv.StreamStats() {
		if h.View == s.cli.View() {
			st.delivered, st.coalesced = h.Delivered, h.Coalesced
		}
	}
	tr.end(hs)
	ls := tr.begin("engine.LogStats", sp)
	if log, ok := eng.LogStats(); ok {
		st.logBytes, st.logged, st.ckpts, st.ckptBytes = log.AppendedBytes, log.NextLSN, log.Checkpoints, log.CheckpointBytes
		st.chainLen = []float64{float64(log.ChainLength)}
	}
	tr.end(ls)
	if err := s.shutdown(sp, tr); err != nil {
		return nil, nil, err
	}
	<-drained
	st.receipt, st.wireLag = receipts(wt, recs)

	if r.o.inject == "log-tail" {
		if err := dropNewestSegment(o.Dir); err != nil {
			return nil, nil, err
		}
	}
	for i := 0; i < recoverReps; i++ {
		fresh, _, _, err := r.newEngine(sp, tr)
		if err != nil {
			return nil, nil, err
		}
		rs := tr.begin("engine.Recover", sp)
		t0 := time.Now()
		stats, err := fresh.Recover(o)
		d := time.Since(t0)
		tr.end(rs)
		if err == nil {
			st.recover = append(st.recover, d.Seconds())
			st.replayed = append(st.replayed, float64(stats.ReplayedEvents))
			st.recChain = append(st.recChain, float64(stats.ChainLength))
			err = sameViews(fresh, eng)
		}
		r.res.gate("recovered engine equals live engine", err)
	}
	return st, eng, nil
}

// clientGate waits until the client holds the hub's last publication of the
// stream view, then compares its reassembled copy with the view in a
// snapshot of the now quiescent engine.
func (r *run) clientGate(s *served, parent int, tr *tracer) error {
	snap := s.eng.Acquire()
	want, err := snap.ResultFor(r.def.streamQuery)
	if err != nil {
		return err
	}
	sp := tr.begin("bench.catchup", parent)
	defer tr.end(sp)
	deadline := time.Now().Add(gateWait)
	for {
		var pos uint64
		st := tr.begin("serve.StreamStats", sp)
		for _, h := range s.srv.StreamStats() {
			if h.View == s.cli.View() {
				pos = h.Events
			}
		}
		tr.end(st)
		if s.cli.Events() == pos {
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("client at position %d, stream at %d after %v", s.cli.Events(), pos, gateWait)
		}
		time.Sleep(time.Millisecond)
	}
	if pos, at := s.cli.Events(), snap.Events(); pos > at {
		return fmt.Errorf("client position %d past the snapshot's %d", pos, at)
	}
	got := s.cli.Result()
	if r.o.inject == "client-copy" {
		t := make(types.Tuple, len(got.Schema()))
		for i := range t {
			t[i] = types.Int(0)
		}
		got.Add(t, 1)
	}
	return sameContents(got, want)
}

// receipts matches each change-stream batch to the windows whose changes it
// carries. A batch at position P carries the window that advanced the
// engine to P; a coalesced batch also carries every window since the
// previous batch. A window that left the stream view unchanged publishes
// nothing and gets no receipt.
func receipts(wt []windowTimes, recs []received) (receipt, lag []float64) {
	first := map[uint64]int{}
	for i, w := range wt {
		if _, ok := first[w.pos]; !ok {
			first[w.pos] = i
		}
	}
	sample := func(i int, at time.Time) {
		receipt = append(receipt, ms(at.Sub(wt[i].due)))
		lag = append(lag, ms(at.Sub(wt[i].done)))
	}
	var prev uint64
	for _, rc := range recs {
		if rc.initial {
			prev = rc.events
			continue
		}
		if rc.coalesced == 0 {
			if i, ok := first[rc.events]; ok {
				sample(i, rc.at)
			}
		} else {
			lo := sort.Search(len(wt), func(i int) bool { return wt[i].pos > prev })
			for i := lo; i < len(wt) && wt[i].pos <= rc.events; i++ {
				if first[wt[i].pos] == i {
					sample(i, rc.at)
				}
			}
		}
		prev = rc.events
	}
	return receipt, lag
}

// dropNewestSegment deletes the newest log segment: the log-tail injection,
// a crash that lost committed records.
func dropNewestSegment(dir string) error {
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil || len(segs) == 0 {
		return fmt.Errorf("log-tail injection: no segment in %s", dir)
	}
	sort.Strings(segs)
	return os.Remove(segs[len(segs)-1])
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
