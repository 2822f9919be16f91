package lib

import (
	"encoding/json"
	"sync"
)

// Counter has a pointer-receiver method.
type Counter struct {
	n int
}

// Inc counts one.
func (c *Counter) Inc() { c.n++ }

// Inner is reached through Outer.In.
type Inner struct {
	Depth int // set only through the chain o.In.Depth = v: live
}

// Outer holds one case of each write rule.
type Outer struct {
	In     Inner      // set through the chain o.In.Depth = v: live
	mu     sync.Mutex // set only by o.mu.Lock(): live
	m      *Counter   // o.m.Inc() does not set it: reported
	Unread int        // read, never set: reported
	Tested int        // set only in writes_test.go: reported
}

// Run reads and writes every field of o.
func Run(o *Outer, v int) int {
	o.In.Depth = v
	o.mu.Lock()
	defer o.mu.Unlock()
	o.m.Inc()
	return o.Unread + o.Tested + o.In.Depth
}

// Report is filled by encoding/json.
type Report struct {
	Items []Item `json:"items"`
}

// Item has no tags, but encoding/json fills it through Report.Items.
type Item struct {
	Weight int
}

// Total decodes a report and sums its weights.
func Total(b []byte) (int, error) {
	var r Report
	err := json.Unmarshal(b, &r)
	total := 0
	for _, it := range r.Items {
		total += it.Weight
	}
	return total, err
}
