package engine

import "testing"

// TestSplitChunksBoundaries pins the chunk sizing invariants the parallel
// block path relies on: chunks tile [0, total) contiguously, none is empty,
// sizes differ by at most one, and at most n chunks are produced. The
// totals just above the parallelism gate (2*shards) are the historical
// degenerate cases: floor-division splitting used to hand the last worker an
// empty or double-sized sliver there.
func TestSplitChunksBoundaries(t *testing.T) {
	cases := []struct{ total, n int }{
		{0, 4}, {1, 1}, {1, 4}, {3, 8},
		{7, 8}, {8, 8}, {9, 8},
		{8, 4}, {9, 4}, {10, 4}, {11, 4}, {12, 4}, // around the 2*shards gate for shards=4
		{16, 8}, {17, 8}, {18, 8}, {23, 8}, // around the gate for shards=8
		{100, 7}, {1000, 16}, {1001, 16},
	}
	for _, tc := range cases {
		chunks := splitChunks(nil, tc.total, tc.n)
		if tc.total == 0 {
			if chunks != nil {
				t.Errorf("splitChunks(%d, %d) = %v, want nil", tc.total, tc.n, chunks)
			}
			continue
		}
		if len(chunks) > tc.n {
			t.Errorf("splitChunks(%d, %d) produced %d chunks", tc.total, tc.n, len(chunks))
		}
		lo, minSize, maxSize := 0, tc.total, 0
		for i, c := range chunks {
			if c[0] != lo {
				t.Errorf("splitChunks(%d, %d) chunk %d starts at %d, want %d", tc.total, tc.n, i, c[0], lo)
			}
			size := c[1] - c[0]
			if size <= 0 {
				t.Errorf("splitChunks(%d, %d) chunk %d is empty or inverted: %v", tc.total, tc.n, i, c)
			}
			if size < minSize {
				minSize = size
			}
			if size > maxSize {
				maxSize = size
			}
			lo = c[1]
		}
		if lo != tc.total {
			t.Errorf("splitChunks(%d, %d) covers [0, %d), want [0, %d)", tc.total, tc.n, lo, tc.total)
		}
		if maxSize-minSize > 1 {
			t.Errorf("splitChunks(%d, %d) sizes range [%d, %d], want spread <= 1", tc.total, tc.n, minSize, maxSize)
		}
	}
}
