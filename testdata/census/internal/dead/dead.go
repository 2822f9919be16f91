// Package dead declares the names live also declares; nothing calls it.
package dead

// Path is unreached, though live.Path is reached.
type Path struct {
	Switched bool
}

// Trace is unreached, though live.Path.Trace is reached.
func Trace() Path { return Path{Switched: true} }
