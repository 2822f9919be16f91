package experiments

import (
	"fmt"

	"bcnphase/internal/core"
	"bcnphase/internal/netsim"
	"bcnphase/internal/ode"
	"bcnphase/internal/plot"
	"bcnphase/internal/stats"
	"bcnphase/internal/workload"
)

// FluidVsPacket validates the fluid model against the packet-level
// simulator on the premise-satisfying scenario: the same BCN parameters
// drive (a) the nonlinear fluid ODE (paper eq. 8) and (b) the
// discrete-event dumbbell with the full BCN message path (sampling,
// wire encoding, feedback quantization, per-frame pacing). The paper's
// modeling step stands or falls on this agreement.
func FluidVsPacket() (*Report, error) {
	cfg, p := workload.ValidationScenario()
	cfg.PreAssociate = true // fluid assumes feedback flows from t = 0
	const duration = 0.04

	rep := &Report{
		ID:    "validate",
		Title: "Fluid model vs packet-level simulation",
		Description: "Queue trajectory of the nonlinear fluid model (eq. 8) against the " +
			"discrete-event BCN dumbbell at identical parameters.",
	}

	// Packet level.
	net, err := netsim.New(cfg)
	if err != nil {
		return nil, fmt.Errorf("validate: %w", err)
	}
	res, err := net.Run(duration)
	if err != nil {
		return nil, fmt.Errorf("validate: %w", err)
	}

	fluidSeries, err := fluidQueue(cfg, p, duration)
	if err != nil {
		return nil, fmt.Errorf("validate: %w", err)
	}
	fluidT, fluidQ := fluidSeries.T, fluidSeries.V

	// Agreement metrics.
	nrmse, err := stats.NRMSE(fluidSeries, res.Queue, 512)
	if err != nil {
		return nil, fmt.Errorf("validate: %w", err)
	}
	fluidPeak := fluidSeries.Max()
	packetPeak := res.Queue.Max()
	rep.AddNumber("NRMSE (queue, fluid vs packet)", nrmse, "")
	rep.AddNumber("fluid peak queue", fluidPeak, "bits")
	rep.AddNumber("packet peak queue", packetPeak, "bits")
	rep.AddNumber("peak ratio packet/fluid", packetPeak/fluidPeak, "")
	if fp, ok := fluidSeries.OscillationPeriod(0.02 * p.Q0); ok {
		rep.AddNumber("fluid oscillation period", fp, "s")
		if pp, ok := res.Queue.OscillationPeriod(0.02 * p.Q0); ok {
			rep.AddNumber("packet oscillation period", pp, "s")
			rep.AddNumber("period ratio packet/fluid", pp/fp, "")
		}
	}
	rep.AddNumber("packet drops", float64(res.DroppedFrames), "frames")
	rep.AddNumber("packet utilization", res.Utilization, "")

	chart := plot.NewChart("Fluid model vs packet simulation — queue", "t (s)", "queue (bits)")
	chart.Add(plot.Series{Name: "fluid (eq. 8)", X: fluidT, Y: fluidQ})
	chart.Add(plot.Series{Name: "packet-level", X: res.Queue.T, Y: res.Queue.V})
	chart.AddHLine(p.Q0, "q0", "#009e73")
	rep.Charts = []NamedChart{{Name: "queue", Chart: chart}}
	rep.Series = append(rep.Series,
		NamedSeries{Name: "fluid_q", T: fluidT, V: fluidQ},
		NamedSeries{Name: "packet_q", T: res.Queue.T, V: res.Queue.V},
	)
	if nrmse > 0.35 {
		rep.Notes = append(rep.Notes, fmt.Sprintf("UNEXPECTED: NRMSE %.3f above 0.35 — fluid premises violated?", nrmse))
	}
	rep.Notes = append(rep.Notes,
		"agreement is expected for the first oscillations while per-source feedback (one BCN message "+
			"per sampled frame) refreshes much faster than the oscillation period; the paper's fluid "+
			"model makes exactly this continuous-feedback assumption")
	return rep, nil
}

// fluidQueue integrates the nonlinear fluid model (eq. 8) of a packet
// scenario from its initial condition (empty queue, every source at the
// configured initial rate) and returns the queue, clamped at 0 for
// comparison with the packet simulator. It is the one fluid reference
// that the validation, delay and fault-tolerance experiments score
// packet runs against.
func fluidQueue(cfg netsim.Config, p core.Params, duration float64) (stats.Series, error) {
	y0 := float64(p.N)*cfg.InitialRate - p.C
	opts := ode.DefaultOptions()
	opts.MaxStep = duration / 2000
	sol, err := ode.DormandPrince(p.FluidRHS(), 0, []float64{-p.Q0, y0}, duration, opts)
	if err != nil {
		return stats.Series{}, fmt.Errorf("fluid integration: %w", err)
	}
	q := make([]float64, sol.Len())
	for i := range q {
		if q[i] = sol.Y[i][0] + p.Q0; q[i] < 0 {
			q[i] = 0
		}
	}
	return stats.NewSeries(sol.T, q)
}

// fluidNRMSE returns the NRMSE of a packet queue trajectory against the
// scenario's fluid reference (the validation experiment's agreement
// metric).
func fluidNRMSE(cfg netsim.Config, p core.Params, duration float64, packetQ stats.Series) (float64, error) {
	fluid, err := fluidQueue(cfg, p, duration)
	if err != nil {
		return 0, err
	}
	return stats.NRMSE(fluid, packetQ, 512)
}
