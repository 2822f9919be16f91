//go:build race

package core

// raceEnabled reports whether the race detector instruments this build;
// timing-sensitive assertions skip under it.
const raceEnabled = true
