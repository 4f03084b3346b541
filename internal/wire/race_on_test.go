//go:build race

package wire

// raceEnabled gates allocation assertions: the race detector's
// instrumentation allocates, which would fail AllocsPerRun bounds that
// hold in normal builds.
const raceEnabled = true
