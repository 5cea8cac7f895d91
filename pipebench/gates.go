package main

import (
	"fmt"
	"math"
	"sort"

	"dbtoaster/internal/agca"
	"dbtoaster/internal/engine"
	"dbtoaster/internal/gmr"
	"dbtoaster/internal/trigger"
	"dbtoaster/internal/types"
	"dbtoaster/internal/workload"
)

// relTol is the relative tolerance of every result comparison. Maintained
// and re-evaluated aggregates sum the same floats in different orders, so
// large sums (BSV's reach 1e17) differ in their last bits; a dropped or
// doubled event moves a result by far more than this.
const relTol = 1e-9

// repResults re-evaluates every query of the set from scratch on the final
// database — the base relations with all events applied — which is the
// paper's REP strategy and the reference every maintained view must equal.
// The base relations are loaded as static tables of an empty engine, so the
// evaluator probes them through the engine's secondary indexes instead of
// scanning.
func repResults(ms *workload.MultiSpec, events []engine.Event) (map[string]*gmr.GMR, error) {
	db := map[string]*gmr.GMR{}
	for _, r := range ms.Catalog.Relations() {
		if !r.Static {
			db[r.Name] = gmr.New(types.Schema(r.Columns))
		}
	}
	for _, ev := range events {
		g, ok := db[ev.Relation]
		if !ok {
			continue
		}
		m := 1.0
		if !ev.Insert {
			m = -1
		}
		g.Add(ev.Tuple, m)
	}
	oracle := engine.New(&trigger.Program{})
	for name, g := range ms.Statics() {
		oracle.LoadStatic(name, g)
	}
	for name, g := range db {
		oracle.LoadStatic(name, g)
	}
	out := make(map[string]*gmr.GMR, len(ms.Specs))
	for _, spec := range ms.Specs {
		g, err := agca.EvalChecked(spec.Query.Expr, oracle, types.Env{})
		if err != nil {
			return nil, fmt.Errorf("REP %s: %w", spec.Name, err)
		}
		out[spec.Name] = g
	}
	return out, nil
}

// queryResults copies every query's current result out of an engine, so the
// engine can be dropped before the reference is computed.
func queryResults(eng *engine.Engine, names []string) (map[string]*gmr.GMR, error) {
	out := make(map[string]*gmr.GMR, len(names))
	for _, n := range names {
		g, err := eng.ResultFor(n)
		if err != nil {
			return nil, err
		}
		out[n] = g.Clone()
	}
	return out, nil
}

// checkResults compares maintained results against the reference, query by
// query in sorted order, and reports the first divergence.
func checkResults(got, want map[string]*gmr.GMR) error {
	names := make([]string, 0, len(want))
	for n := range want {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		g, ok := got[n]
		if !ok {
			return fmt.Errorf("query %s: no result", n)
		}
		if err := sameContents(g, aligned(want[n], g)); err != nil {
			return fmt.Errorf("query %s: %w", n, err)
		}
	}
	return nil
}

// aligned reorders the reference's columns to the maintained result's when
// both name the same columns in another order. A hash-consed result view may
// carry another query's key names; its columns then match positionally.
func aligned(want, got *gmr.GMR) *gmr.GMR {
	ws, gs := want.Schema(), got.Schema()
	if ws.Equal(gs) || len(ws) != len(gs) {
		return want
	}
	have := map[string]bool{}
	for _, c := range ws {
		have[c] = true
	}
	for _, c := range gs {
		if !have[c] {
			return want
		}
	}
	return gmr.Project(want, gs)
}

// sameContents reports whether two stores hold the same tuples (compared by
// position, not column name) with multiplicities equal within relTol.
func sameContents(got, want *gmr.GMR) error {
	if len(got.Schema()) != len(want.Schema()) {
		return fmt.Errorf("arity %d, want %d", len(got.Schema()), len(want.Schema()))
	}
	if got.Len() != want.Len() {
		return fmt.Errorf("%d entries, want %d", got.Len(), want.Len())
	}
	var bad error
	got.Foreach(func(t types.Tuple, m float64) {
		if bad != nil {
			return
		}
		w := want.Get(t)
		if math.Abs(m-w) > relTol*math.Max(1, math.Max(math.Abs(m), math.Abs(w))) {
			bad = fmt.Errorf("tuple %v: multiplicity %v, want %v", t, m, w)
		}
	})
	return bad
}

// sameViews compares every materialized view of two engines running the
// same program.
func sameViews(got, want *engine.Engine) error {
	for _, m := range want.Program().Maps {
		if err := sameContents(got.View(m.Name).Data(), want.View(m.Name).Data()); err != nil {
			return fmt.Errorf("view %s: %w", m.Name, err)
		}
	}
	return nil
}
