//go:build race

package update_test

// raceEnabled scales the seeded streams down under the race detector,
// which slows them about tenfold.
const raceEnabled = true
