// Package phaseplane provides generic tools for analyzing planar autonomous
// dynamical systems: singular-point classification of linear systems,
// trajectory tracing (including piecewise/switched systems with events on a
// switching surface), vector-field sampling for portraits, and Poincaré
// return maps for limit-cycle detection.
//
// The BCN congestion-control model in internal/core is one client; the
// package itself is independent of networking.
package phaseplane

// SingularKind classifies the singular (equilibrium) point of a planar
// linear system x' = A x.
type SingularKind int

// Singular point categories, following the standard trace-determinant
// classification of planar linear systems.
const (
	// KindUnknown is returned for degenerate matrices (zero determinant).
	KindUnknown SingularKind = iota
	// KindStableFocus: complex eigenvalues with negative real part; the
	// trajectories are contracting logarithmic spirals.
	KindStableFocus
	// KindUnstableFocus: complex eigenvalues with positive real part.
	KindUnstableFocus
	// KindCenter: purely imaginary eigenvalues; closed orbits.
	KindCenter
	// KindStableNode: two negative real eigenvalues.
	KindStableNode
	// KindUnstableNode: two positive real eigenvalues.
	KindUnstableNode
	// KindSaddle: real eigenvalues of opposite sign.
	KindSaddle
	// KindDegenerateStableNode: repeated negative real eigenvalue.
	KindDegenerateStableNode
	// KindDegenerateUnstableNode: repeated positive real eigenvalue.
	KindDegenerateUnstableNode
)

// String returns a short human-readable name for the classification.
func (k SingularKind) String() string {
	switch k {
	case KindStableFocus:
		return "stable focus"
	case KindUnstableFocus:
		return "unstable focus"
	case KindCenter:
		return "center"
	case KindStableNode:
		return "stable node"
	case KindUnstableNode:
		return "unstable node"
	case KindSaddle:
		return "saddle"
	case KindDegenerateStableNode:
		return "degenerate stable node"
	case KindDegenerateUnstableNode:
		return "degenerate unstable node"
	default:
		return "unknown"
	}
}

// Stable reports whether the singular point attracts nearby trajectories.
func (k SingularKind) Stable() bool {
	switch k {
	case KindStableFocus, KindStableNode, KindDegenerateStableNode:
		return true
	default:
		return false
	}
}

// Linear2 is the planar linear system
//
//	x' = A11 x + A12 y
//	y' = A21 x + A22 y
type Linear2 struct {
	A11, A12, A21, A22 float64
}

// Trace returns the trace of the system matrix.
func (l Linear2) Trace() float64 { return l.A11 + l.A22 }

// Det returns the determinant of the system matrix.
func (l Linear2) Det() float64 { return l.A11*l.A22 - l.A12*l.A21 }

// Discriminant returns trace² − 4·det, whose sign separates foci from nodes.
func (l Linear2) Discriminant() float64 {
	tr := l.Trace()
	return tr*tr - 4*l.Det()
}

// Classify determines the type of the singular point at the origin.
func (l Linear2) Classify() SingularKind {
	det := l.Det()
	tr := l.Trace()
	if det == 0 {
		return KindUnknown
	}
	if det < 0 {
		return KindSaddle
	}
	disc := l.Discriminant()
	switch {
	case disc < 0:
		switch {
		case tr < 0:
			return KindStableFocus
		case tr > 0:
			return KindUnstableFocus
		default:
			return KindCenter
		}
	case disc == 0:
		if tr < 0 {
			return KindDegenerateStableNode
		}
		return KindDegenerateUnstableNode
	default:
		if tr < 0 {
			return KindStableNode
		}
		return KindUnstableNode
	}
}

// Field returns the vector field of the linear system.
func (l Linear2) Field() VectorField {
	return func(x, y float64) (float64, float64) {
		return l.A11*x + l.A12*y, l.A21*x + l.A22*y
	}
}
