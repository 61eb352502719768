//go:build race

package observe

// raceEnabled reports whether the race detector is compiled in.
const raceEnabled = true
