// Package workload builds netsim scenarios for the traffic patterns the
// paper motivates: homogeneous long-lived flows through one bottleneck,
// incast waves from parallel reads in cluster file systems (Lustre,
// Panasas), and the fluid-vs-packet validation scenario. Each builder
// returns a ready-to-run
// netsim.Config; callers tweak fields before netsim.New if needed.
package workload

import (
	"fmt"

	"bcnphase/internal/core"
	"bcnphase/internal/netsim"
)

// FromParams derives a netsim scenario from a fluid-model parameter set,
// carrying over the BCN gains, sampling, reference and buffer so that the
// packet-level run exercises the configuration the fluid analysis judged.
// Sources start at overloadFactor × fair share (values above 1 create the
// congestion transient that engages the control loop).
func FromParams(p core.Params, overloadFactor float64) (netsim.Config, error) {
	if err := p.Validate(); err != nil {
		return netsim.Config{}, err
	}
	if !(overloadFactor > 0) {
		return netsim.Config{}, fmt.Errorf("workload: overloadFactor=%v must be positive", overloadFactor)
	}
	qsc := p.Qsc
	cfg := netsim.Config{
		N:           p.N,
		Capacity:    p.C,
		LineRate:    p.C, // every NIC can saturate the bottleneck
		FrameBits:   12000,
		BufferBits:  p.B,
		PropDelay:   netsim.FromSeconds(1e-6),
		InitialRate: overloadFactor * p.C / float64(p.N),
		BCN:         true,
		Q0:          p.Q0,
		Qsc:         qsc,
		W:           p.W,
		Pm:          p.Pm,
		Ru:          p.Ru,
		Gi:          p.Gi,
		Gd:          p.Gd,
	}
	return cfg, nil
}

// Incast builds the parallel-read pattern: n servers answer one client
// through a single bottleneck, all starting within a short window (the
// synchronized reply burst that makes incast collapse notorious). Each
// server initially sends at its line rate.
func Incast(n int, capacity, bufferBits float64, window float64) (netsim.Config, error) {
	if n <= 0 {
		return netsim.Config{}, fmt.Errorf("workload: n=%d must be positive", n)
	}
	if !(capacity > 0) || !(bufferBits > 0) || window < 0 {
		return netsim.Config{}, fmt.Errorf("workload: invalid capacity=%v buffer=%v window=%v", capacity, bufferBits, window)
	}
	starts := make([]netsim.Nanos, n)
	for i := range starts {
		if n > 1 {
			starts[i] = netsim.FromSeconds(window * float64(i) / float64(n-1))
		}
	}
	cfg := netsim.Config{
		N:           n,
		Capacity:    capacity,
		LineRate:    capacity,
		FrameBits:   12000,
		BufferBits:  bufferBits,
		PropDelay:   netsim.FromSeconds(1e-6),
		InitialRate: capacity, // line-rate burst: the incast signature
		StartTimes:  starts,
		BCN:         true,
		Q0:          bufferBits / 8,
		Qsc:         bufferBits * 3 / 4,
		W:           core.DefaultW,
		Pm:          0.2,
		Ru:          core.DefaultRu,
		Gi:          0.05,
		Gd:          core.DefaultGd,
		// Floor the regulators at 1/8 of the fair share: BCN's positive
		// feedback rides on sampled data frames, so a source crushed to
		// a negligible rate would wait ~seconds for its first positive
		// message (the draft's recovery-timer problem).
		MinRate: capacity / (8 * float64(n)),
	}
	return cfg, nil
}

// ValidationScenario returns the fluid-premise-satisfying scenario used by
// the fluid-vs-packet validation experiment: few sources, per-frame
// sampling and modest additive gain, so that per-source feedback refreshes
// much faster than the system's oscillation period and the rate regulator
// tracks paper eq. (7) closely. The matching fluid parameters are returned
// alongside.
func ValidationScenario() (netsim.Config, core.Params) {
	p := core.Params{
		N:  2,
		C:  1e9,
		Ru: core.DefaultRu,
		Gi: 0.5, // a = 8e6: oscillation period ~2.2 ms >> feedback gap
		Gd: core.DefaultGd,
		W:  core.DefaultW,
		Pm: 1, // sample every frame
		Q0: 2e5,
		B:  4e6,
	}
	cfg := netsim.Config{
		N:           p.N,
		Capacity:    p.C,
		LineRate:    2 * p.C, // keep rate clamps away from the fluid range
		FrameBits:   12000,
		BufferBits:  p.B,
		PropDelay:   netsim.FromSeconds(1e-6),
		InitialRate: 1.2 * p.C / float64(p.N), // 20% overload engages the loop
		BCN:         true,
		Q0:          p.Q0,
		W:           p.W,
		Pm:          p.Pm,
		Ru:          p.Ru,
		Gi:          p.Gi,
		Gd:          p.Gd,
	}
	return cfg, p
}
