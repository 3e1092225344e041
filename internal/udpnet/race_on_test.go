//go:build race

package udpnet

// raceEnabled mirrors the -race build tag. Under the race detector
// sync.Pool drops a share of the buffers put back on purpose, so the
// receive allocation pin is skipped there; every other test runs.
const raceEnabled = true
