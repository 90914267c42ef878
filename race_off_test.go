//go:build !race

package xmldyn

const raceEnabled = false
