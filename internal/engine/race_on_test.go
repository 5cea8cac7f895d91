//go:build race

package engine_test

// raceEnabled reports a race-detector build, where allocation counts are
// not meaningful (instrumentation allocates and sync.Pool drops entries at
// random).
const raceEnabled = true
