package phaseplane

import "bcnphase/internal/telemetry"

// Metrics instruments Poincaré return-map evaluations. A nil *Metrics
// is inert; the solver integrator below it can additionally be
// instrumented through ReturnMap.ODE.Metrics.
type Metrics struct {
	// Returns counts completed first-return evaluations.
	Returns *telemetry.Counter
	// NoReturns counts trajectories that never came back to the section
	// within the horizon.
	NoReturns *telemetry.Counter
	// FlightTime records the simulated period of each completed return.
	FlightTime *telemetry.Histogram
}
