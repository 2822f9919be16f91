package ode

// Solution holds the accepted mesh of an integration: times T and the state
// vectors Y, with Y[i] the state at T[i]. T is strictly increasing.
type Solution struct {
	T []float64
	Y [][]float64
	// Events holds any event crossings located during integration, in
	// time order.
	Events []EventHit
}

func (s *Solution) append(t float64, y []float64) {
	cp := make([]float64, len(y))
	copy(cp, y)
	s.T = append(s.T, t)
	s.Y = append(s.Y, cp)
}

// Len returns the number of mesh points.
func (s *Solution) Len() int { return len(s.T) }

// Last returns the final time and state. It panics only via index error if
// the solution is empty; callers should check Len first.
func (s *Solution) Last() (float64, []float64) {
	i := len(s.T) - 1
	return s.T[i], s.Y[i]
}

func cloneVec(v []float64) []float64 {
	out := make([]float64, len(v))
	copy(out, v)
	return out
}
