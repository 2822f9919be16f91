package sweep

import (
	"math"
	"testing"
)

// Edge cases for the spacing helpers, pinning the documented contracts:
// degenerate spacings (n < 2) error, descending bounds are legal, and
// Logspace rejects non-positive bounds.

func TestLinspaceDegenerateCounts(t *testing.T) {
	for _, n := range []int{1, 0, -3} {
		if _, err := Linspace(0, 1, n); err == nil {
			t.Errorf("Linspace n=%d accepted", n)
		}
	}
	if got, err := Linspace(5, 5, 2); err != nil || got[0] != 5 || got[1] != 5 {
		t.Errorf("Linspace(5,5,2) = %v, %v", got, err)
	}
}

func TestLinspaceDescending(t *testing.T) {
	got, err := Linspace(10, 0, 3)
	if err != nil {
		t.Fatalf("descending Linspace rejected: %v", err)
	}
	want := []float64{10, 5, 0}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("Linspace(10,0,3)[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestLogspaceDegenerateCounts(t *testing.T) {
	for _, n := range []int{1, 0, -1} {
		if _, err := Logspace(1, 10, n); err == nil {
			t.Errorf("Logspace n=%d accepted", n)
		}
	}
}

func TestLogspaceNonPositiveBounds(t *testing.T) {
	cases := [][2]float64{{0, 1}, {1, 0}, {-1, 10}, {1, -10}, {0, 0}, {math.NaN(), 1}, {1, math.NaN()}}
	for _, c := range cases {
		if _, err := Logspace(c[0], c[1], 4); err == nil {
			t.Errorf("Logspace(%v, %v) accepted", c[0], c[1])
		}
	}
}

func TestLogspaceDescending(t *testing.T) {
	got, err := Logspace(100, 1, 3)
	if err != nil {
		t.Fatalf("descending Logspace rejected: %v", err)
	}
	want := []float64{100, 10, 1}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-9*want[i] {
			t.Errorf("Logspace(100,1,3)[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestLogspaceEndpointsExactEnough(t *testing.T) {
	got, err := Logspace(1.0/1024, 0.5, 10)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 1.0/1024 {
		t.Errorf("first = %v", got[0])
	}
	if math.Abs(got[len(got)-1]-0.5) > 1e-12 {
		t.Errorf("last = %v", got[len(got)-1])
	}
}
