//go:build !race

package udpnet

// raceEnabled mirrors the -race build tag; see race_on_test.go.
const raceEnabled = false
