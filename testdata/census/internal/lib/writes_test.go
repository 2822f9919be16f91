package lib

import "testing"

func TestRunReadsTested(t *testing.T) {
	o := &Outer{m: &Counter{}}
	o.Tested = 2
	if got := Run(o, 1); got != 3 {
		t.Errorf("Run = %d, want 3", got)
	}
}
