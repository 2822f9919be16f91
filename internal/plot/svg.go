package plot

import (
	"errors"
	"fmt"
	"io"
	"math"
	"strings"
)

// ErrEmptyChart is returned when rendering a chart with no data.
var ErrEmptyChart = errors.New("plot: chart has no data")

// Default palette (colorblind-friendly).
var defaultColors = []string{
	"#0072b2", "#d55e00", "#009e73", "#cc79a7", "#e69f00", "#56b4e9", "#000000",
}

// LineStyle selects solid or dashed strokes.
type LineStyle int

// Stroke styles.
const (
	Solid LineStyle = iota
	Dashed
	Dotted
)

func (s LineStyle) dashArray() string {
	switch s {
	case Dashed:
		return "8,5"
	case Dotted:
		return "2,4"
	default:
		return ""
	}
}

// Series is one polyline on a chart.
type Series struct {
	Name   string
	X, Y   []float64
	Color  string // empty picks from the palette
	Style  LineStyle
	Width  float64 // stroke width, default 1.5
	Points bool    // draw point markers
}

// Marker is a single annotated point.
type Marker struct {
	X, Y  float64
	Label string
	Color string
}

// HLine and VLine are reference lines spanning the plot area.
type refLine struct {
	value float64
	label string
	color string
	style LineStyle
	vert  bool
}

// Chart is a 2-D line/scatter chart rendered to SVG.
type Chart struct {
	Title, XLabel, YLabel string
	W, H                  int // pixel size; default 720×480
	series                []Series
	markers               []Marker
	refs                  []refLine
	// Explicit axis limits; NaN means auto.
	XMin, XMax, YMin, YMax float64
	// XLog and YLog render the axis on a log10 scale; non-positive
	// samples on a log axis are skipped.
	XLog, YLog bool
	// Legend toggles the legend box (default on when >1 named series).
	HideLegend bool
}

// NewChart creates an empty chart with auto-scaled axes.
func NewChart(title, xlabel, ylabel string) *Chart {
	return &Chart{
		Title: title, XLabel: xlabel, YLabel: ylabel,
		W: 720, H: 480,
		XMin: math.NaN(), XMax: math.NaN(), YMin: math.NaN(), YMax: math.NaN(),
	}
}

// Add appends a series and returns the chart for chaining.
func (c *Chart) Add(s Series) *Chart {
	c.series = append(c.series, s)
	return c
}

// AddXY is shorthand for Add with just a name and data.
func (c *Chart) AddXY(name string, x, y []float64) *Chart {
	return c.Add(Series{Name: name, X: x, Y: y})
}

// AddMarker places an annotated point.
func (c *Chart) AddMarker(m Marker) *Chart {
	c.markers = append(c.markers, m)
	return c
}

// AddHLine draws a horizontal reference line at y = v.
func (c *Chart) AddHLine(v float64, label, color string) *Chart {
	c.refs = append(c.refs, refLine{value: v, label: label, color: color, style: Dashed})
	return c
}

// AddVLine draws a vertical reference line at x = v.
func (c *Chart) AddVLine(v float64, label, color string) *Chart {
	c.refs = append(c.refs, refLine{value: v, label: label, color: color, style: Dashed, vert: true})
	return c
}

// AddSegment draws a straight line segment between two data points, useful
// for switching lines and eigendirections in phase portraits.
func (c *Chart) AddSegment(name string, x0, y0, x1, y1 float64, color string, style LineStyle) *Chart {
	return c.Add(Series{
		Name: name, X: []float64{x0, x1}, Y: []float64{y0, y1},
		Color: color, Style: style, Width: 1,
	})
}

// bounds computes the data extent including reference artifacts.
func (c *Chart) bounds() (xmin, xmax, ymin, ymax float64, err error) {
	xmin, xmax = math.Inf(1), math.Inf(-1)
	ymin, ymax = math.Inf(1), math.Inf(-1)
	saw := false
	for _, s := range c.series {
		for i := range s.X {
			if math.IsNaN(s.X[i]) || math.IsNaN(s.Y[i]) {
				continue
			}
			saw = true
			xmin = math.Min(xmin, s.X[i])
			xmax = math.Max(xmax, s.X[i])
			ymin = math.Min(ymin, s.Y[i])
			ymax = math.Max(ymax, s.Y[i])
		}
	}
	for _, m := range c.markers {
		saw = true
		xmin, xmax = math.Min(xmin, m.X), math.Max(xmax, m.X)
		ymin, ymax = math.Min(ymin, m.Y), math.Max(ymax, m.Y)
	}
	if !saw {
		return 0, 0, 0, 0, ErrEmptyChart
	}
	if !math.IsNaN(c.XMin) {
		xmin = c.XMin
	}
	if !math.IsNaN(c.XMax) {
		xmax = c.XMax
	}
	if !math.IsNaN(c.YMin) {
		ymin = c.YMin
	}
	if !math.IsNaN(c.YMax) {
		ymax = c.YMax
	}
	if xmin == xmax {
		xmin, xmax = xmin-1, xmax+1
	}
	if ymin == ymax {
		ymin, ymax = ymin-1, ymax+1
	}
	// Padding is applied in axis space by Render (so log axes pad
	// multiplicatively).
	return xmin, xmax, ymin, ymax, nil
}

// RenderBytes renders the chart to an in-memory SVG document, for
// callers that publish artifacts atomically (render fully, then write
// tmp+rename) instead of streaming into a half-created file.
func (c *Chart) RenderBytes() ([]byte, error) {
	var b strings.Builder
	if err := c.Render(&b); err != nil {
		return nil, err
	}
	return []byte(b.String()), nil
}

// Render writes the chart as a standalone SVG document.
func (c *Chart) Render(w io.Writer) error {
	xmin, xmax, ymin, ymax, err := c.bounds()
	if err != nil {
		return err
	}
	if c.XLog {
		if xmin, xmax, err = logRange(xmin, xmax, "x"); err != nil {
			return err
		}
	}
	if c.YLog {
		if ymin, ymax, err = logRange(ymin, ymax, "y"); err != nil {
			return err
		}
	}
	// 4% padding in axis space (multiplicative on log axes).
	dx, dy := 0.04*(xmax-xmin), 0.04*(ymax-ymin)
	xmin, xmax = xmin-dx, xmax+dx
	ymin, ymax = ymin-dy, ymax+dy
	W, H := c.W, c.H
	if W <= 0 {
		W = 720
	}
	if H <= 0 {
		H = 480
	}
	const (
		mLeft, mRight, mTop, mBottom = 72, 20, 40, 52
	)
	pw := float64(W - mLeft - mRight)
	ph := float64(H - mTop - mBottom)
	xcoord := func(x float64) float64 {
		if c.XLog {
			return math.Log10(x)
		}
		return x
	}
	ycoord := func(y float64) float64 {
		if c.YLog {
			return math.Log10(y)
		}
		return y
	}
	sx := func(x float64) float64 { return float64(mLeft) + (xcoord(x)-xmin)/(xmax-xmin)*pw }
	sy := func(y float64) float64 { return float64(mTop) + (ymax-ycoord(y))/(ymax-ymin)*ph }
	xVisible := func(x float64) bool { return !c.XLog || x > 0 }
	yVisible := func(y float64) bool { return !c.YLog || y > 0 }

	var b strings.Builder
	fmt.Fprintf(&b, `<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" viewBox="0 0 %d %d">`+"\n", W, H, W, H)
	b.WriteString(`<rect width="100%" height="100%" fill="white"/>` + "\n")
	if c.Title != "" {
		fmt.Fprintf(&b, `<text x="%d" y="24" font-family="sans-serif" font-size="16" text-anchor="middle">%s</text>`+"\n", W/2, esc(c.Title))
	}

	// Grid and ticks. On log axes the tick values are decades in data
	// space; elsewhere the usual nice-number ticks in axis space.
	xticks := axisTicks(xmin, xmax, 8, c.XLog)
	yticks := axisTicks(ymin, ymax, 7, c.YLog)
	b.WriteString(`<g font-family="sans-serif" font-size="11" fill="#444">` + "\n")
	for _, tx := range xticks {
		px := sx(tx)
		if px < float64(mLeft)-0.5 || px > float64(mLeft)+pw+0.5 {
			continue
		}
		fmt.Fprintf(&b, `<line x1="%.1f" y1="%d" x2="%.1f" y2="%.1f" stroke="#ddd" stroke-width="1"/>`+"\n", px, mTop, px, float64(mTop)+ph)
		fmt.Fprintf(&b, `<text x="%.1f" y="%.1f" text-anchor="middle">%s</text>`+"\n", px, float64(mTop)+ph+16, FormatTick(tx))
	}
	for _, ty := range yticks {
		py := sy(ty)
		if py < float64(mTop)-0.5 || py > float64(mTop)+ph+0.5 {
			continue
		}
		fmt.Fprintf(&b, `<line x1="%d" y1="%.1f" x2="%.1f" y2="%.1f" stroke="#ddd" stroke-width="1"/>`+"\n", mLeft, py, float64(mLeft)+pw, py)
		fmt.Fprintf(&b, `<text x="%d" y="%.1f" text-anchor="end">%s</text>`+"\n", mLeft-6, py+4, FormatTick(ty))
	}
	b.WriteString("</g>\n")

	// Axes frame.
	fmt.Fprintf(&b, `<rect x="%d" y="%d" width="%.1f" height="%.1f" fill="none" stroke="#333" stroke-width="1"/>`+"\n", mLeft, mTop, pw, ph)
	if c.XLabel != "" {
		fmt.Fprintf(&b, `<text x="%d" y="%d" font-family="sans-serif" font-size="13" text-anchor="middle">%s</text>`+"\n", mLeft+int(pw/2), H-10, esc(c.XLabel))
	}
	if c.YLabel != "" {
		fmt.Fprintf(&b, `<text x="16" y="%d" font-family="sans-serif" font-size="13" text-anchor="middle" transform="rotate(-90 16 %d)">%s</text>`+"\n", mTop+int(ph/2), mTop+int(ph/2), esc(c.YLabel))
	}

	// Reference lines.
	for _, r := range c.refs {
		col := r.color
		if col == "" {
			col = "#888"
		}
		if r.vert {
			if r.value < xmin || r.value > xmax {
				continue
			}
			fmt.Fprintf(&b, `<line x1="%.1f" y1="%d" x2="%.1f" y2="%.1f" stroke="%s" stroke-width="1" stroke-dasharray="%s"/>`+"\n", sx(r.value), mTop, sx(r.value), float64(mTop)+ph, col, r.style.dashArray())
			if r.label != "" {
				fmt.Fprintf(&b, `<text x="%.1f" y="%d" font-family="sans-serif" font-size="11" fill="%s">%s</text>`+"\n", sx(r.value)+4, mTop+14, col, esc(r.label))
			}
		} else {
			if r.value < ymin || r.value > ymax {
				continue
			}
			fmt.Fprintf(&b, `<line x1="%d" y1="%.1f" x2="%.1f" y2="%.1f" stroke="%s" stroke-width="1" stroke-dasharray="%s"/>`+"\n", mLeft, sy(r.value), float64(mLeft)+pw, sy(r.value), col, r.style.dashArray())
			if r.label != "" {
				fmt.Fprintf(&b, `<text x="%.1f" y="%.1f" font-family="sans-serif" font-size="11" fill="%s">%s</text>`+"\n", float64(mLeft)+pw-4, sy(r.value)-4, col, esc(r.label))
				// right-align label
			}
		}
	}

	// Series polylines, clipped to the plot area.
	fmt.Fprintf(&b, `<clipPath id="plot"><rect x="%d" y="%d" width="%.1f" height="%.1f"/></clipPath>`+"\n", mLeft, mTop, pw, ph)
	b.WriteString(`<g clip-path="url(#plot)">` + "\n")
	for i, s := range c.series {
		col := s.Color
		if col == "" {
			col = defaultColors[i%len(defaultColors)]
		}
		width := s.Width
		if width == 0 {
			width = 1.5
		}
		var pts strings.Builder
		for j := range s.X {
			if math.IsNaN(s.X[j]) || math.IsNaN(s.Y[j]) ||
				!xVisible(s.X[j]) || !yVisible(s.Y[j]) {
				continue
			}
			fmt.Fprintf(&pts, "%.2f,%.2f ", sx(s.X[j]), sy(s.Y[j]))
		}
		dash := ""
		if da := s.Style.dashArray(); da != "" {
			dash = fmt.Sprintf(` stroke-dasharray="%s"`, da)
		}
		fmt.Fprintf(&b, `<polyline points="%s" fill="none" stroke="%s" stroke-width="%.1f"%s/>`+"\n", strings.TrimSpace(pts.String()), col, width, dash)
		if s.Points {
			for j := range s.X {
				if !xVisible(s.X[j]) || !yVisible(s.Y[j]) {
					continue
				}
				fmt.Fprintf(&b, `<circle cx="%.2f" cy="%.2f" r="2.5" fill="%s"/>`+"\n", sx(s.X[j]), sy(s.Y[j]), col)
			}
		}
	}
	b.WriteString("</g>\n")

	// Markers.
	for _, m := range c.markers {
		col := m.Color
		if col == "" {
			col = "#d00"
		}
		fmt.Fprintf(&b, `<circle cx="%.2f" cy="%.2f" r="4" fill="%s"/>`+"\n", sx(m.X), sy(m.Y), col)
		if m.Label != "" {
			fmt.Fprintf(&b, `<text x="%.2f" y="%.2f" font-family="sans-serif" font-size="11">%s</text>`+"\n", sx(m.X)+6, sy(m.Y)-6, esc(m.Label))
		}
	}

	// Legend.
	if !c.HideLegend {
		var named []int
		for i, s := range c.series {
			if s.Name != "" {
				named = append(named, i)
			}
		}
		if len(named) > 0 {
			lx, ly := mLeft+12, mTop+10
			for row, i := range named {
				s := c.series[i]
				col := s.Color
				if col == "" {
					col = defaultColors[i%len(defaultColors)]
				}
				y := ly + row*16
				fmt.Fprintf(&b, `<line x1="%d" y1="%d" x2="%d" y2="%d" stroke="%s" stroke-width="2"/>`+"\n", lx, y, lx+20, y, col)
				fmt.Fprintf(&b, `<text x="%d" y="%d" font-family="sans-serif" font-size="11">%s</text>`+"\n", lx+26, y+4, esc(s.Name))
			}
		}
	}

	b.WriteString("</svg>\n")
	_, err = io.WriteString(w, b.String())
	return err
}

// logRange converts a data range to log10 axis space, requiring positive
// bounds.
func logRange(lo, hi float64, axis string) (float64, float64, error) {
	if lo <= 0 || hi <= 0 {
		return 0, 0, fmt.Errorf("plot: log %s-axis requires positive data range, got [%v, %v]", axis, lo, hi)
	}
	return math.Log10(lo), math.Log10(hi), nil
}

// axisTicks returns tick values in data space: nice numbers for linear
// axes, decades (with 2x and 5x minors when sparse) for log axes. The lo
// and hi arguments are in axis space (already log10 for log axes).
func axisTicks(lo, hi float64, n int, logAxis bool) []float64 {
	if !logAxis {
		return Ticks(lo, hi, n)
	}
	var out []float64
	first := int(math.Floor(lo))
	last := int(math.Ceil(hi))
	decades := last - first
	for d := first; d <= last; d++ {
		base := math.Pow(10, float64(d))
		out = append(out, base)
		if decades <= 3 {
			out = append(out, 2*base, 5*base)
		}
	}
	return out
}

func esc(s string) string {
	r := strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;", `"`, "&quot;")
	return r.Replace(s)
}
