package core_test

import (
	"fmt"

	"bcnphase/internal/core"
)

// ExampleTheorem1Bound reproduces the paper's worked example: the buffer
// a strongly stable BCN system needs at 50 flows on 10 Gbps.
func ExampleTheorem1Bound() {
	p := core.PaperExample()
	fmt.Printf("required: %.2f Mbit (buffer %.2f Mbit, ok=%v)\n",
		core.Theorem1Bound(p)/1e6, p.B/1e6, core.Theorem1Satisfied(p))
	// Output:
	// required: 13.81 Mbit (buffer 5.00 Mbit, ok=false)
}

// ExampleParams_Case classifies a parameter set into the paper's
// phase-plane cases.
func ExampleParams_Case() {
	p := core.PaperExample()
	fmt.Println(p.Case())
	p = core.CaseExample(core.Case4)
	fmt.Println(p.Case())
	// Output:
	// case 1 (spiral/spiral)
	// case 4 (node/node)
}

// ExampleSolve runs the stitched phase-plane trajectory from the
// canonical start and prints the strong-stability verdict.
func ExampleSolve() {
	p := core.PaperExample() // BDP-sized buffer: too small
	tr, err := core.Solve(p, core.SolveOptions{})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Printf("%v (strongly stable: %v)\n", tr.Outcome, tr.Outcome.StronglyStable())

	p.B = core.Theorem1Bound(p) * 1.05 // resize per Theorem 1
	tr, err = core.Solve(p, core.SolveOptions{})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Printf("%v (strongly stable: %v)\n", tr.Outcome, tr.Outcome.StronglyStable())
	// Output:
	// overflow (strongly stable: false)
	// converged (strongly stable: true)
}

// ExampleFirstRoundExtrema computes the exact first-round queue overshoot
// and undershoot of the Case-1 trajectory.
func ExampleFirstRoundExtrema() {
	p := core.FigureExample()
	max1, min1, err := core.FirstRoundExtrema(p)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Printf("peak q = %.1f kbit, trough q = %.3f kbit\n",
		(p.Q0+max1)/1e3, (p.Q0+min1)/1e3)
	// Output:
	// peak q = 402.4 kbit, trough q = 0.004 kbit
}

// ExampleMaxFlowsForBuffer sizes the workload a buffer can sustain.
func ExampleMaxFlowsForBuffer() {
	p := core.PaperExample()
	p.B = 13.9e6 // just above the N=50 requirement
	n, err := core.MaxFlowsForBuffer(p)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println("max flows:", n)
	// Output:
	// max flows: 50
}
