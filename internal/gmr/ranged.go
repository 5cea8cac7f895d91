package gmr

import (
	"math/bits"

	"dbtoaster/internal/types"
)

// This file adds the hash-aware entry points and the range-partitioned delta
// store used by the engine's columnar batch pipeline. The key hash is
// seedless (see flat.go), so a hash computed once — by a batched probe, a
// routing decision, or a cached slot — is valid against every GMR.

// HashKey returns the 64-bit hash of a canonical key encoding (the bytes
// produced by types.Tuple.AppendKey). It is the same function every GMR uses
// internally, exposed so bulk callers can compute hashes in one tight pass
// over a block of keys and reuse them for routing and probing.
func HashKey(key []byte) uint64 { return hashKey(key) }

// AddEncodedHashed is AddEncoded for callers that already hold the key's
// hash (from HashKey or a cached slot); it skips rehashing. Like AddEncoded,
// neither the key bytes nor the tuple are retained, and a zero m leaves the
// GMR unchanged.
func (g *GMR) AddEncodedHashed(h uint64, key []byte, t types.Tuple, m float64) float64 {
	if m == 0 {
		return 0
	}
	g.checkArity(t)
	_, nm, _ := g.upsertHashed(h, key, t, m, true)
	return nm
}

// GetEncodedHashed is GetEncoded with the key's hash supplied by the caller.
// The batched probe path computes hashes over a block of keys first and then
// probes with them, so the per-row lookup is one find call.
func (g *GMR) GetEncodedHashed(h uint64, key []byte) float64 {
	if g.live == 0 {
		return 0
	}
	if _, id, ok := g.find(h, key); ok {
		return g.slots[id].mult
	}
	return 0
}

// Ranged is a delta accumulator partitioned by key-hash range: a power-of-two
// number of sub-GMRs over the same schema, with every key routed by the top
// bits of its hash. Two Ranged stores with the same part count route every
// key identically, so part i of one store can be merged into part i of
// another — or into any shared destination — without ever touching the other
// parts. That disjointness is what lets the engine's batch pipeline combine
// the deltas of one hot view across its whole worker pool lock-free, instead
// of serializing the merge on the view.
//
// Parts are created lazily (a nullary or low-cardinality delta touches one
// part). A Ranged store is single-writer, like the GMR it wraps, and is meant
// to be long-lived: Reset empties it for the next window without giving back
// any part's memory, and SwapPart moves whole parts between stores without
// ever letting two stores share one.
type Ranged struct {
	schema types.Schema
	// parts holds the live partitions; parts beyond len, up to cap, are
	// emptied parts of an earlier, larger partitioning, kept for reuse.
	parts  []*GMR
	shift  uint
	keyBuf []byte
}

// NewRanged returns an empty range-partitioned accumulator with at least
// nParts partitions (rounded up to a power of two, minimum 1).
func NewRanged(schema types.Schema, nParts int) *Ranged {
	p := partCount(nParts)
	return &Ranged{
		schema: schema.Clone(),
		parts:  make([]*GMR, p),
		shift:  partShift(p),
	}
}

// partCount rounds a requested partition count up to a power of two.
func partCount(nParts int) int {
	p := 1
	for p < nParts {
		p <<= 1
	}
	return p
}

// partShift is the hash shift routing to one of p (a power of two) parts.
// With p == 1 the shift is 64 and every hash routes to part 0 (Go defines
// over-width shifts of unsigned values as 0).
func partShift(p int) uint { return uint(64 - bits.TrailingZeros(uint(p))) }

// Reset empties the store and repartitions it into at least nParts parts
// (rounded up like NewRanged). Every part created so far keeps its arena,
// slot slice and probe table — also the parts a smaller partitioning leaves
// unused, which come back when the count grows again — so a store reused
// across windows stops allocating once its parts reach working-set size.
func (r *Ranged) Reset(nParts int) {
	all := r.parts[:cap(r.parts)]
	for _, g := range all {
		if g != nil && len(g.slots) != 0 {
			g.Reset()
		}
	}
	p := partCount(nParts)
	if p > len(all) {
		grown := make([]*GMR, p)
		copy(grown, all)
		all = grown
	}
	r.parts = all[:p]
	r.shift = partShift(p)
}

// Schema returns the schema shared by every part.
func (r *Ranged) Schema() types.Schema { return r.schema }

// NumParts returns the partition count.
func (r *Ranged) NumParts() int { return len(r.parts) }

// PartFor returns the partition index the hash routes to.
func (r *Ranged) PartFor(h uint64) int { return int(h >> r.shift) }

// Part returns the partition at index i, or nil when the store has never
// held one there. A reused store's parts may be non-nil and empty.
func (r *Ranged) Part(i int) *GMR { return r.parts[i] }

// SwapPart exchanges partition i of r with partition i of o. The engine's
// merge stage uses it to hand a whole part from one worker's store to the
// combined one while the other side takes the (empty) part it replaces, so
// every part keeps exactly one owning store. Both stores must route by the
// same part count.
func (r *Ranged) SwapPart(i int, o *Ranged) {
	r.parts[i], o.parts[i] = o.parts[i], r.parts[i]
}

func (r *Ranged) part(i int) *GMR {
	if r.parts[i] == nil {
		r.parts[i] = New(r.schema)
	}
	return r.parts[i]
}

// Len returns the number of live entries across all parts.
func (r *Ranged) Len() int {
	n := 0
	for _, p := range r.parts {
		if p != nil {
			n += p.live
		}
	}
	return n
}

// AddEncoded routes the key by hash and adds into its partition. It
// implements the executors' Accum interface, so a block or row pipeline can
// emit straight into a range-partitioned delta.
func (r *Ranged) AddEncoded(key []byte, t types.Tuple, m float64) float64 {
	if m == 0 {
		return 0
	}
	h := hashKey(key)
	return r.part(int(h>>r.shift)).AddEncodedHashed(h, key, t, m)
}

// Add encodes the tuple's key and routes it like AddEncoded.
func (r *Ranged) Add(t types.Tuple, m float64) float64 {
	if m == 0 {
		return 0
	}
	r.keyBuf = t.AppendKey(r.keyBuf[:0])
	h := hashKey(r.keyBuf)
	return r.part(int(h>>r.shift)).AddEncodedHashed(h, r.keyBuf, t, m)
}

// Gather merges every part into a single GMR (a fresh one over the schema),
// mainly for tests and small consumers that do not care about partitioning.
func (r *Ranged) Gather() *GMR {
	out := New(r.schema)
	for _, p := range r.parts {
		out.MergeInto(p, 1)
	}
	return out
}
