//go:build race

package frontend_test

// raceEnabled reports a -race build, whose sync.Pool drops some of the
// items put back, so allocation counts there are not the program's.
const raceEnabled = true
