//go:build race

package labeling_test

// raceEnabled skips allocation counts, which the race detector moves.
const raceEnabled = true
