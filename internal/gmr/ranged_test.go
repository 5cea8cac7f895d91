package gmr

import (
	"fmt"
	"math/rand"
	"testing"

	"dbtoaster/internal/types"
)

func TestHashedEntryPointsRoundTrip(t *testing.T) {
	g := New(types.Schema{"a", "b"})
	tup := types.Tuple{types.Int(7), types.Str("x")}
	key := tup.AppendKey(nil)
	h := HashKey(key)

	if got := g.AddEncodedHashed(h, key, tup, 2.5); got != 2.5 {
		t.Fatalf("AddEncodedHashed = %g, want 2.5", got)
	}
	if got := g.GetEncodedHashed(h, key); got != 2.5 {
		t.Fatalf("GetEncodedHashed = %g, want 2.5", got)
	}
	// The hashed entry points must agree with the plain ones.
	if got := g.GetEncoded(key); got != 2.5 {
		t.Fatalf("GetEncoded = %g, want 2.5", got)
	}
	if got := g.AddEncodedHashed(h, key, tup, -2.5); got != 0 {
		t.Fatalf("AddEncodedHashed cancel = %g, want 0", got)
	}
	if got := g.GetEncodedHashed(h, key); got != 0 {
		t.Fatalf("GetEncodedHashed after removal = %g, want 0", got)
	}
	if got := g.AddEncodedHashed(h, key, tup, 0); got != 0 || g.Len() != 0 {
		t.Fatalf("zero add changed the GMR: ret=%g len=%d", got, g.Len())
	}
}

func TestRangedPartCountRounding(t *testing.T) {
	for _, tc := range []struct{ in, want int }{
		{0, 1}, {1, 1}, {2, 2}, {3, 4}, {4, 4}, {5, 8}, {8, 8}, {9, 16},
	} {
		if got := NewRanged(types.Schema{"k"}, tc.in).NumParts(); got != tc.want {
			t.Errorf("NewRanged(%d).NumParts() = %d, want %d", tc.in, got, tc.want)
		}
	}
}

// TestRangedMatchesPlain checks that a Ranged accumulator holds exactly the
// contents a plain GMR would, for every part count, and that routing is
// consistent: each key lands in the part its hash's top bits select.
func TestRangedMatchesPlain(t *testing.T) {
	for _, nParts := range []int{1, 2, 4, 8} {
		t.Run(fmt.Sprintf("parts=%d", nParts), func(t *testing.T) {
			schema := types.Schema{"k", "s"}
			plain := New(schema)
			ranged := NewRanged(schema, nParts)
			rng := rand.New(rand.NewSource(42))
			var key []byte
			for i := 0; i < 500; i++ {
				tup := types.Tuple{
					types.Int(int64(rng.Intn(60))),
					types.Str(fmt.Sprintf("s%d", rng.Intn(5))),
				}
				m := float64(rng.Intn(7) - 3)
				plain.Add(tup, m)
				if i%2 == 0 {
					ranged.Add(tup, m)
				} else {
					key = tup.AppendKey(key[:0])
					ranged.AddEncoded(key, tup, m)
				}
			}
			if got := ranged.Gather(); !Equal(plain, got, 1e-9) {
				t.Fatalf("Gather mismatch:\nwant %v\ngot  %v", plain, got)
			}
			if ranged.Len() != plain.Len() {
				t.Fatalf("Len = %d, want %d", ranged.Len(), plain.Len())
			}
			// Every entry must live in the part its hash routes to.
			for i := 0; i < ranged.NumParts(); i++ {
				p := ranged.Part(i)
				if p == nil {
					continue
				}
				p.ForeachKeyed(func(k []byte, _ types.Tuple, _ float64) {
					if want := ranged.PartFor(HashKey(k)); want != i {
						t.Errorf("key %q stored in part %d, routed to %d", k, i, want)
					}
				})
			}
		})
	}
}

// TestRangedPartwiseMerge exercises the property the engine's lock-free merge
// relies on: two Ranged stores with the same part count partition keys
// identically, so merging them part-by-part equals merging them wholesale.
func TestRangedPartwiseMerge(t *testing.T) {
	schema := types.Schema{"k"}
	a := NewRanged(schema, 8)
	b := NewRanged(schema, 8)
	want := New(schema)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 400; i++ {
		tup := types.Tuple{types.Int(int64(rng.Intn(100)))}
		m := float64(rng.Intn(5) - 2)
		if i%2 == 0 {
			a.Add(tup, m)
		} else {
			b.Add(tup, m)
		}
		want.Add(tup, m)
	}
	// Part-by-part combine, swapping in the parts a never touched.
	for i := 0; i < a.NumParts(); i++ {
		bp := b.Part(i)
		if bp == nil {
			continue
		}
		if ap := a.Part(i); ap == nil || ap.IsEmpty() {
			a.SwapPart(i, b)
			if b.Part(i) != ap {
				t.Fatalf("part %d: swap did not hand a's part to b", i)
			}
			continue
		}
		a.Part(i).MergeInto(bp, 1)
	}
	if got := a.Gather(); !Equal(want, got, 1e-9) {
		t.Fatalf("partwise merge mismatch:\nwant %v\ngot  %v", want, got)
	}
}

// TestResetDropsTuples pins that Reset leaves no tuple reachable from the
// slot slice's spare capacity: a store reused for the engine's lifetime must
// not keep a previous window's tuples alive.
func TestResetDropsTuples(t *testing.T) {
	g := New(types.Schema{"k", "v"})
	for i := 0; i < 200; i++ {
		g.Add(types.Tuple{types.Int(int64(i)), types.Str(fmt.Sprint(i))}, 1)
	}
	for i := 0; i < 200; i += 3 {
		g.Add(types.Tuple{types.Int(int64(i)), types.Str(fmt.Sprint(i))}, -1)
	}
	g.Reset()
	if g.Len() != 0 {
		t.Fatalf("Len after Reset = %d", g.Len())
	}
	for i, s := range g.slots[:cap(g.slots)] {
		if s.tuple != nil {
			t.Fatalf("slot %d in spare capacity still holds tuple %v", i, s.tuple)
		}
	}
	// The emptied store is fully usable again.
	want := New(g.Schema())
	for i := 0; i < 50; i++ {
		tup := types.Tuple{types.Int(int64(i % 7)), types.Str("x")}
		g.Add(tup, 2)
		want.Add(tup, 2)
	}
	if !Equal(want, g, 0) {
		t.Fatalf("reused store mismatch:\nwant %v\ngot  %v", want, g)
	}
}

// TestRangedResetReuse checks that Reset empties a Ranged store in place:
// every part keeps its identity across resets and repartitions (including
// parts a smaller count leaves unused), resetting allocates nothing once the
// parts exist, and the reset store routes and accumulates like a fresh one.
func TestRangedResetReuse(t *testing.T) {
	schema := types.Schema{"k"}
	fill := func(r *Ranged, seed int64) *GMR {
		want := New(schema)
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 500; i++ {
			tup := types.Tuple{types.Int(int64(rng.Intn(300)))}
			m := float64(rng.Intn(5) - 2)
			r.Add(tup, m)
			want.Add(tup, m)
		}
		return want
	}
	r := NewRanged(schema, 4)
	fill(r, 1)
	owned := map[*GMR]bool{}
	for i := 0; i < r.NumParts(); i++ {
		if r.Part(i) == nil {
			t.Fatalf("part %d never created", i)
		}
		owned[r.Part(i)] = true
	}
	for round, n := range []int{4, 1, 2, 4, 3} {
		r.Reset(n)
		if r.Len() != 0 {
			t.Fatalf("round %d: Len after Reset(%d) = %d", round, n, r.Len())
		}
		if got, want := r.NumParts(), partCount(n); got != want {
			t.Fatalf("round %d: NumParts after Reset(%d) = %d, want %d", round, n, got, want)
		}
		for i, g := range r.parts[:cap(r.parts)] {
			if g != nil && !owned[g] {
				t.Fatalf("round %d: part %d was replaced instead of reused", round, i)
			}
		}
		want := fill(r, int64(round+2))
		if got := r.Gather(); !Equal(want, got, 1e-9) {
			t.Fatalf("round %d: reset store mismatch:\nwant %v\ngot  %v", round, want, got)
		}
		for i := 0; i < r.NumParts(); i++ {
			if p := r.Part(i); p != nil {
				p.ForeachKeyed(func(k []byte, _ types.Tuple, _ float64) {
					if want := r.PartFor(HashKey(k)); want != i {
						t.Fatalf("round %d: key %q stored in part %d, routed to %d", round, k, i, want)
					}
				})
			}
		}
	}
	if allocs := testing.AllocsPerRun(20, func() { r.Reset(1); r.Reset(4) }); allocs != 0 {
		t.Fatalf("Reset allocates %.1f/op on a warmed store, want 0", allocs)
	}
}
