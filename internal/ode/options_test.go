package ode

import (
	"errors"
	"math"
	"strings"
	"testing"
)

func TestOptionsValidate(t *testing.T) {
	cases := []struct {
		name string
		o    Options
		ok   bool
		frag string
	}{
		{"zero value", Options{}, true, ""},
		{"defaults", DefaultOptions(), true, ""},
		{"negative abstol", Options{AbsTol: -1e-9}, false, "AbsTol"},
		{"nan abstol", Options{AbsTol: math.NaN()}, false, "AbsTol"},
		{"inf reltol", Options{RelTol: math.Inf(1)}, false, "RelTol"},
		{"negative reltol", Options{RelTol: -0.5}, false, "RelTol"},
		{"nan maxstep", Options{MaxStep: math.NaN()}, false, "MaxStep"},
		{"negative maxsteps", Options{MaxSteps: -1}, false, "MaxSteps"},
	}
	for _, c := range cases {
		err := c.o.Validate()
		if (err == nil) != c.ok {
			t.Fatalf("%s: Validate() = %v, want ok=%v", c.name, err, c.ok)
		}
		if err != nil {
			if !errors.Is(err, ErrOptions) {
				t.Fatalf("%s: error does not wrap ErrOptions: %v", c.name, err)
			}
			if !strings.Contains(err.Error(), c.frag) {
				t.Fatalf("%s: error %q lacks %q", c.name, err, c.frag)
			}
		}
	}
}

func TestDormandPrinceRejectsInvalidOptions(t *testing.T) {
	f := func(_ float64, y, dydt []float64) { dydt[0] = -y[0] }
	_, err := DormandPrince(f, 0, []float64{1}, 1, Options{RelTol: math.NaN()})
	if !errors.Is(err, ErrOptions) {
		t.Fatalf("want ErrOptions, got %v", err)
	}
	_, err = DormandPrince(f, 0, []float64{1}, 1, Options{MaxSteps: -1})
	if !errors.Is(err, ErrOptions) {
		t.Fatalf("want ErrOptions, got %v", err)
	}
}
