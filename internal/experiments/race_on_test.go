//go:build race

package experiments

// raceEnabled mirrors the -race build tag. The 512-node determinism
// soak skips under the race detector — its 64-node sibling exercises
// the identical concurrent machinery at a tolerable cost — while every
// other test keeps full race coverage.
const raceEnabled = true
