//go:build !race

package predicate

const raceEnabled = false
