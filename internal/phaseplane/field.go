package phaseplane

import (
	"fmt"
	"math"
)

// VectorField is a planar autonomous vector field: it returns (dx/dt, dy/dt)
// at the point (x, y).
type VectorField func(x, y float64) (dx, dy float64)

// Arrow is a sampled field vector anchored at (X, Y) with direction
// (U, V), normalized to unit length unless the field vanishes there.
type Arrow struct {
	X, Y, U, V float64
	// Mag is the original (un-normalized) field magnitude.
	Mag float64
}

// Grid samples the field on an nx×ny lattice covering [xmin,xmax]×[ymin,ymax]
// with unit-normalized directions, for quiver-style phase portraits.
func Grid(f VectorField, xmin, xmax, ymin, ymax float64, nx, ny int) ([]Arrow, error) {
	if nx < 2 || ny < 2 {
		return nil, fmt.Errorf("phaseplane: grid needs nx, ny >= 2 (got %d, %d)", nx, ny)
	}
	if !(xmax > xmin) || !(ymax > ymin) {
		return nil, fmt.Errorf("phaseplane: empty grid extent [%v,%v]x[%v,%v]", xmin, xmax, ymin, ymax)
	}
	out := make([]Arrow, 0, nx*ny)
	for i := 0; i < nx; i++ {
		x := xmin + (xmax-xmin)*float64(i)/float64(nx-1)
		for j := 0; j < ny; j++ {
			y := ymin + (ymax-ymin)*float64(j)/float64(ny-1)
			u, v := f(x, y)
			mag := math.Hypot(u, v)
			if mag > 0 {
				u /= mag
				v /= mag
			}
			out = append(out, Arrow{X: x, Y: y, U: u, V: v, Mag: mag})
		}
	}
	return out, nil
}
