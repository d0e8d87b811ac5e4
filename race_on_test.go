//go:build race

package wasmdb_test

// raceEnabled lets a test drop a run whose cost the race detector multiplies
// beyond reason and that exercises no concurrent code.
const raceEnabled = true
