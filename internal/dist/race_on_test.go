//go:build race

package dist

// raceEnabled thins the exhaustive cross-checks and skips allocation
// assertions: the race detector slows every instrumented load by an
// order of magnitude, and its instrumentation may allocate.
const raceEnabled = true
