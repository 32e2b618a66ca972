//go:build race

package serve

// raceEnabled reports a -race build, under which sync.Pool drops a share
// of the values put back, so allocation gates do not hold.
const raceEnabled = true
