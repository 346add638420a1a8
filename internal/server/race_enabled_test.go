//go:build race

package server

// raceEnabled reports whether the race detector is active; its
// instrumentation allocates and sync.Pool randomly drops items under it,
// so allocation pins are skipped under -race.
const raceEnabled = true
