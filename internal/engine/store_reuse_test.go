package engine_test

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"dbtoaster/internal/compiler"
	"dbtoaster/internal/engine"
	"dbtoaster/internal/gmr"
	"dbtoaster/internal/sql"
	"dbtoaster/internal/types"
)

// storeReuseSQL is a three-relation chain with integer-only arithmetic: every
// multiplicity is an integer far below 2^53, so batched and sequential
// execution must agree bit for bit whatever order they sum deltas in.
const storeReuseSQL = `
CREATE STREAM R (A int, B int);
CREATE STREAM S (B int, C int);
CREATE STREAM T (C int, D int);
SELECT r.A, SUM(s.C * t.D) FROM R r, S s, T t WHERE r.B = s.B AND s.C = t.C GROUP BY r.A;
SELECT s.B, COUNT(*) FROM S s, T t WHERE s.C = t.C GROUP BY s.B;
SELECT t.D, SUM(t.C) FROM T t GROUP BY t.D;
`

func newStoreReuseEngine(t *testing.T) *engine.Engine {
	t.Helper()
	script, err := sql.Parse(storeReuseSQL)
	if err != nil {
		t.Fatal(err)
	}
	cat, err := script.Catalog()
	if err != nil {
		t.Fatal(err)
	}
	qs, err := script.Queries("reuse")
	if err != nil {
		t.Fatal(err)
	}
	var queries []compiler.Query
	for _, q := range qs {
		queries = append(queries, compiler.Query{Name: q.Name, Expr: q.Expr})
	}
	prog, _, err := compiler.CompileSet(queries, cat, compiler.OptionsFor(compiler.ModeDBToaster))
	if err != nil {
		t.Fatal(err)
	}
	eng := engine.New(prog)
	if err := eng.Init(); err != nil {
		t.Fatal(err)
	}
	return eng
}

// requireSameEntries asserts two stores hold the same keys with bit-identical
// multiplicities.
func requireSameEntries(t *testing.T, label string, want, got *gmr.GMR) {
	t.Helper()
	we, ge := want.Entries(), got.Entries()
	same := len(we) == len(ge)
	for i := 0; same && i < len(we); i++ {
		same = bytes.Equal(we[i].Tuple.AppendKey(nil), ge[i].Tuple.AppendKey(nil)) &&
			math.Float64bits(we[i].Mult) == math.Float64bits(ge[i].Mult)
	}
	if !same {
		t.Fatalf("%s: not byte-equal\nwant: %v\ngot:  %v", label, want, got)
	}
}

// TestBatchStoreReuse drives the batched path through the situations its
// engine-lifetime delta stores must survive: windows that alternate between
// relations (so a view's stores sit out some windows with last window's
// deltas still in them), shard counts changing 1 → 2 → 4 → 1 between windows
// (so stores are repartitioned and parts swapped between workers of
// different windows), window sizes on both sides of the parallelism gate,
// and a subscriber on every view (so capture reads the merged stores after
// the swap). After every window each view must be byte-equal to sequential
// Apply, and each subscriber's copy byte-equal to its view.
func TestBatchStoreReuse(t *testing.T) {
	ref := newStoreReuseEngine(t)
	eng := newStoreReuseEngine(t)

	type copyOf struct {
		sub  *engine.Subscription
		data *gmr.GMR
	}
	subs := map[string]*copyOf{}
	for name := range eng.ViewSizes() {
		sub, err := eng.Subscribe(name, engine.SubscribeOptions{Buffer: 4, SkipInitial: true})
		if err != nil {
			t.Fatal(err)
		}
		defer sub.Cancel()
		subs[name] = &copyOf{sub: sub, data: gmr.New(types.Schema(eng.View(name).Keys()))}
	}

	rng := rand.New(rand.NewSource(13))
	domain := map[string][2]int{"R": {40, 8}, "S": {8, 8}, "T": {8, 6}}
	live := map[string][]types.Tuple{}
	event := func(rel string) engine.Event {
		if l := live[rel]; len(l) > 20 && rng.Intn(4) == 0 {
			i := rng.Intn(len(l))
			tup := l[i]
			live[rel] = append(l[:i], l[i+1:]...)
			return engine.Event{Relation: rel, Insert: false, Tuple: tup}
		}
		d := domain[rel]
		tup := types.Tuple{types.Int(int64(rng.Intn(d[0]))), types.Int(int64(rng.Intn(d[1])))}
		live[rel] = append(live[rel], tup)
		return engine.Event{Relation: rel, Insert: true, Tuple: tup}
	}

	relSets := [][]string{{"R"}, {"S"}, {"T"}, {"R", "S"}, {"S", "T", "R"}, {"T"}, {"R"}}
	// Sizes just above the gate (2*shards) give each worker a chunk of two
	// or three rows, so many parts stay empty and the merge swaps them.
	sizes := []int{3, 5, 9, 12, 40, 97, 256}
	shardCycle := []int{1, 2, 4, 1}
	for w := 0; w < 160; w++ {
		eng.SetShards(shardCycle[w%len(shardCycle)])
		rels := relSets[w%len(relSets)]
		window := make([]engine.Event, sizes[rng.Intn(len(sizes))])
		for i := range window {
			window[i] = event(rels[rng.Intn(len(rels))])
		}
		for _, ev := range window {
			if err := ref.Apply(ev); err != nil {
				t.Fatalf("window %d: sequential apply: %v", w, err)
			}
		}
		if err := eng.ApplyBatch(engine.NewBatch(window)); err != nil {
			t.Fatalf("window %d: batch apply: %v", w, err)
		}
		label := fmt.Sprintf("window %d (shards=%d, relations %v, %d events)", w, eng.Shards(), rels, len(window))
		for name, c := range subs {
			requireSameEntries(t, label+": view "+name, ref.View(name).Data(), eng.View(name).Data())
		drain:
			for {
				select {
				case b := <-c.sub.C:
					for _, en := range b.Entries {
						c.data.Add(en.Tuple, en.Mult)
					}
				default:
					break drain
				}
			}
			requireSameEntries(t, label+": subscriber copy of "+name, eng.View(name).Data(), c.data)
		}
	}
}
