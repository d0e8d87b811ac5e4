//go:build !race

package wasmdb_test

const raceEnabled = false
