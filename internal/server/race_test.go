//go:build race

package server_test

// raceEnabled reports a -race build. The race detector drops a random
// share of sync.Pool puts, so allocation counts are not deterministic
// under it.
const raceEnabled = true
