//go:build race

package mac

// raceEnabled reports whether the tests run under the race detector.
const raceEnabled = true
