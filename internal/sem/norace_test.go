//go:build !race

package sem

const raceEnabled = false
