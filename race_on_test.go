//go:build race

package xmldyn

// raceEnabled skips the P-claims whose readings the race detector moves.
const raceEnabled = true
