//go:build !race

package labeling_test

const raceEnabled = false
