//go:build !race

package observe

// raceEnabled reports whether the race detector is compiled in. The
// allocation-budget test skips under -race: the detector instruments
// every allocation and makes AllocsPerRun meaningless.
const raceEnabled = false
