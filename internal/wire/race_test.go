//go:build race

package wire

// raceEnabled reports a -race build, whose sync.Pool drops a random
// share of puts: pooled paths then allocate.
const raceEnabled = true
