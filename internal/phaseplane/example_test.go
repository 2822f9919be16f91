package phaseplane_test

import (
	"fmt"

	"bcnphase/internal/phaseplane"
)

// ExampleLinear2_Classify classifies the singular point of a planar
// linear system from its companion form x' = y, y' = -n·x - m·y, whose
// characteristic polynomial is λ² + mλ + n.
func ExampleLinear2_Classify() {
	companion := func(m, n float64) phaseplane.Linear2 {
		return phaseplane.Linear2{A12: 1, A21: -n, A22: -m}
	}
	fmt.Println(companion(1, 4).Classify())  // m²<4n
	fmt.Println(companion(5, 4).Classify())  // m²>4n
	fmt.Println(companion(0, -1).Classify()) // det<0
	// Output:
	// stable focus
	// stable node
	// saddle
}

// ExampleReturnMap_FixedPoint finds the Van der Pol limit cycle through
// the Poincaré first-return map on the x-axis.
func ExampleReturnMap_FixedPoint() {
	vdp := func(x, y float64) (float64, float64) {
		return y, (1-x*x)*y - x
	}
	m := &phaseplane.ReturnMap{
		Field:   vdp,
		Sigma:   func(x, y float64) float64 { return y },
		Embed:   func(s float64) (float64, float64) { return s, 0 },
		Project: func(x, y float64) float64 { return x },
		Horizon: 100,
	}
	s, err := m.FixedPoint(0.5, 4, 16)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Printf("limit cycle amplitude: %.2f\n", s)
	// Output:
	// limit cycle amplitude: 2.01
}
