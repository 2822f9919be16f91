// Package live declares a Path that the command reaches.
package live

// Path is reached from the command.
type Path struct {
	Switched bool
}

// Trace reports whether the path switched.
func (p Path) Trace() bool { return p.Switched }
