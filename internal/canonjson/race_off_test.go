//go:build !race

package canonjson

// raceEnabled reports whether the race detector instruments this build;
// the long differential loops shrink under it.
const raceEnabled = false
