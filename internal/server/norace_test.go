//go:build !race

package server

// raceEnabled reports a -race build, in which sync.Pool drops released
// items at random.
const raceEnabled = false
