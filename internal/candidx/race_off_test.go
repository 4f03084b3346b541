//go:build !race

package candidx_test

const raceEnabled = false
