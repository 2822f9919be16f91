package plot

import (
	"errors"
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestTicksCoverRange(t *testing.T) {
	cases := [][2]float64{
		{0, 1}, {-5, 5}, {0, 1e9}, {2.5e6, 13.8e6}, {-1e-4, 1e-4}, {3, 3},
	}
	for _, c := range cases {
		ticks := Ticks(c[0], c[1], 8)
		if len(ticks) < 2 {
			t.Errorf("Ticks(%v, %v) = %v: too few", c[0], c[1], ticks)
		}
		for i := 1; i < len(ticks); i++ {
			if ticks[i] <= ticks[i-1] {
				t.Errorf("Ticks(%v, %v) not increasing: %v", c[0], c[1], ticks)
			}
		}
	}
}

func TestTicksReversedInput(t *testing.T) {
	ticks := Ticks(5, -5, 6)
	if len(ticks) < 2 {
		t.Fatalf("reversed range not handled: %v", ticks)
	}
}

// TestQuickTicksStepUniform: tick spacing is uniform and positive.
func TestQuickTicksStepUniform(t *testing.T) {
	prop := func(loRaw, spanRaw uint16) bool {
		lo := float64(int(loRaw) - 32768)
		span := 1 + float64(spanRaw)
		ticks := Ticks(lo, lo+span, 8)
		if len(ticks) < 2 {
			return false
		}
		step := ticks[1] - ticks[0]
		for i := 2; i < len(ticks); i++ {
			if math.Abs((ticks[i]-ticks[i-1])-step) > 1e-9*step {
				return false
			}
		}
		return step > 0
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestFormatTick(t *testing.T) {
	cases := []struct {
		v    float64
		want string
	}{
		{0, "0"},
		{1500, "1.5k"},
		{2.5e6, "2.5M"},
		{10e9, "10G"},
		{-3e6, "-3M"},
		{0.25, "0.25"},
	}
	for _, c := range cases {
		if got := FormatTick(c.v); got != c.want {
			t.Errorf("FormatTick(%v) = %q, want %q", c.v, got, c.want)
		}
	}
}

func TestChartRender(t *testing.T) {
	c := NewChart("Phase portrait", "x (bits)", "y (bits/s)")
	c.AddXY("trajectory", []float64{-1, 0, 1, 2}, []float64{0, 1, 0, -1})
	c.Add(Series{Name: "dashed", X: []float64{0, 2}, Y: []float64{1, 1}, Style: Dashed})
	c.AddMarker(Marker{X: 1, Y: 0, Label: "peak"})
	c.AddHLine(0.5, "ref", "")
	c.AddVLine(1.5, "switch", "#f00")
	c.AddSegment("seg", 0, 0, 2, -1, "#999", Dotted)

	var b strings.Builder
	if err := c.Render(&b); err != nil {
		t.Fatalf("Render: %v", err)
	}
	svg := b.String()
	for _, want := range []string{
		"<svg", "</svg>", "Phase portrait", "trajectory", "peak",
		"polyline", "stroke-dasharray", "clipPath",
	} {
		if !strings.Contains(svg, want) {
			t.Errorf("SVG missing %q", want)
		}
	}
}

func TestChartRenderEmpty(t *testing.T) {
	var b strings.Builder
	if err := NewChart("t", "x", "y").Render(&b); !errors.Is(err, ErrEmptyChart) {
		t.Errorf("err = %v, want ErrEmptyChart", err)
	}
}

func TestChartExplicitLimits(t *testing.T) {
	c := NewChart("t", "x", "y")
	c.AddXY("s", []float64{0, 10}, []float64{0, 10})
	c.XMin, c.XMax, c.YMin, c.YMax = 2, 8, 2, 8
	var b strings.Builder
	if err := c.Render(&b); err != nil {
		t.Fatalf("Render: %v", err)
	}
}

func TestChartEscapesXML(t *testing.T) {
	c := NewChart(`a<b>&"c"`, "x", "y")
	c.AddXY("s<&>", []float64{0, 1}, []float64{0, 1})
	var b strings.Builder
	if err := c.Render(&b); err != nil {
		t.Fatalf("Render: %v", err)
	}
	svg := b.String()
	if strings.Contains(svg, `a<b>`) {
		t.Error("title not escaped")
	}
	if !strings.Contains(svg, "&lt;") {
		t.Error("expected escaped entities")
	}
}

func TestChartNaNSkipped(t *testing.T) {
	c := NewChart("t", "x", "y")
	c.AddXY("s", []float64{0, math.NaN(), 2}, []float64{0, 1, 2})
	var b strings.Builder
	if err := c.Render(&b); err != nil {
		t.Fatalf("Render with NaN: %v", err)
	}
}

func TestASCII(t *testing.T) {
	out, err := ASCII("wave", 40, 12,
		Series{Name: "sin", X: ramp(50), Y: mapf(ramp(50), func(x float64) float64 { return math.Sin(x / 5) })},
	)
	if err != nil {
		t.Fatalf("ASCII: %v", err)
	}
	if !strings.Contains(out, "wave") || !strings.Contains(out, "*") || !strings.Contains(out, "sin") {
		t.Errorf("unexpected output:\n%s", out)
	}
	if _, err := ASCII("empty", 40, 12); !errors.Is(err, ErrEmptyChart) {
		t.Errorf("err = %v, want ErrEmptyChart", err)
	}
}

func TestASCIIDefaultsAndConstantSeries(t *testing.T) {
	out, err := ASCII("", 0, 0, Series{X: []float64{1, 1}, Y: []float64{2, 2}})
	if err != nil {
		t.Fatalf("ASCII: %v", err)
	}
	if out == "" {
		t.Error("empty render")
	}
}

func ramp(n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = float64(i)
	}
	return v
}

func mapf(x []float64, f func(float64) float64) []float64 {
	y := make([]float64, len(x))
	for i, v := range x {
		y[i] = f(v)
	}
	return y
}

func TestNiceNum(t *testing.T) {
	cases := []struct {
		x     float64
		round bool
		want  float64
	}{
		{1.2, true, 1},
		{2.6, true, 2},
		{4.9, true, 5},
		{8, true, 10},
		{1.2, false, 2},
		{0.7, false, 1},
		{0, true, 0},
	}
	for _, c := range cases {
		if got := niceNum(c.x, c.round); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("niceNum(%v, %v) = %v, want %v", c.x, c.round, got, c.want)
		}
	}
}

func TestTrimZero(t *testing.T) {
	cases := map[string]string{
		"1.500": "1.5",
		"2.000": "2",
		"10":    "10",
		"0.250": "0.25",
	}
	for in, want := range cases {
		if got := trimZero(in); got != want {
			t.Errorf("trimZero(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestChartLogAxes(t *testing.T) {
	c := NewChart("log", "x", "y")
	c.XLog, c.YLog = true, true
	c.AddXY("s", []float64{0.01, 0.1, 1, 10}, []float64{1, 10, 100, 1000})
	var b strings.Builder
	if err := c.Render(&b); err != nil {
		t.Fatalf("Render: %v", err)
	}
	if !strings.Contains(b.String(), "polyline") {
		t.Error("no polyline rendered")
	}
}

func TestChartLogAxisRejectsNonPositive(t *testing.T) {
	c := NewChart("log", "x", "y")
	c.XLog = true
	c.AddXY("s", []float64{-1, 1}, []float64{1, 2})
	var b strings.Builder
	if err := c.Render(&b); err == nil {
		t.Error("non-positive data on a log axis accepted")
	}
}

func TestChartLogSkipsNonPositivePoints(t *testing.T) {
	c := NewChart("log", "x", "y")
	c.YLog = true
	// One zero sample must be skipped, not break the render (the data
	// range is computed over all points, so keep them positive overall
	// via explicit limits).
	c.YMin, c.YMax = 1, 1000
	c.AddXY("s", []float64{0, 1, 2}, []float64{0, 10, 100})
	var b strings.Builder
	if err := c.Render(&b); err != nil {
		t.Fatalf("Render: %v", err)
	}
}

func TestAxisTicksLog(t *testing.T) {
	ticks := axisTicks(0, 3, 8, true) // 1 .. 1000 in data space
	hasDecade := map[float64]bool{}
	for _, v := range ticks {
		hasDecade[v] = true
	}
	for _, want := range []float64{1, 10, 100, 1000} {
		if !hasDecade[want] {
			t.Errorf("log ticks missing decade %v: %v", want, ticks)
		}
	}
}
