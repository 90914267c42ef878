//go:build !race

package update_test

const raceEnabled = false
