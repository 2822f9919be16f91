package qos

import (
	"runtime"
	"sync"
	"time"
)

// Level is a brownout rung. Higher levels shed more work; the ladder is
// ordered so comparisons read naturally (level >= CachedOnly).
type Level int32

const (
	// Full serves everything the admission controller admits.
	Full Level = iota
	// NoNewSweeps sheds new sweep and shard jobs (the expensive kinds)
	// but still runs solves/netsims and serves cached artifacts.
	NoNewSweeps
	// CachedOnly serves cache hits only; every miss is shed. This is the
	// terminal state for storage-degraded servers.
	CachedOnly
	// Drain admits nothing; in-flight work finishes.
	Drain
)

// String names the rung for headers, logs and /statusz.
func (l Level) String() string {
	switch l {
	case Full:
		return "full"
	case NoNewSweeps:
		return "no-new-sweeps"
	case CachedOnly:
		return "cached-only"
	case Drain:
		return "drain"
	default:
		return "unknown"
	}
}

// Queue-occupancy fractions (of queue capacity) at which the watchdog
// enters NoNewSweeps and CachedOnly.
const (
	queueNoNewSweeps = 0.75
	queueCachedOnly  = 0.95
)

// BrownoutConfig tunes the watchdog's runtime-health thresholds; zero
// fields get defaults, negative caps disable that signal.
type BrownoutConfig struct {
	// MaxGoroutines forces CachedOnly when runtime.NumGoroutine exceeds
	// it (default 20000; negative disables).
	MaxGoroutines int
	// MaxHeapBytes forces CachedOnly when the live heap exceeds it, and
	// Drain at 1.5x (default disabled: 0 or negative means no heap
	// signal, because a sensible bound is deployment-specific).
	MaxHeapBytes int64
	// ExitHold is how many consecutive calm observations are required
	// before stepping back down a rung (default 5). Entry is immediate;
	// exit is held, so the ladder cannot flap at a threshold.
	ExitHold int
}

func (c BrownoutConfig) withDefaults() BrownoutConfig {
	if c.MaxGoroutines == 0 {
		c.MaxGoroutines = 20000
	}
	if c.ExitHold <= 0 {
		c.ExitHold = 5
	}
	return c
}

// Watchdog drives the brownout ladder from periodic observations of
// queue occupancy and runtime health. Safe for concurrent use.
type Watchdog struct {
	cfg BrownoutConfig

	mu        sync.Mutex
	level     Level
	pinned    bool   // a Pin overrides observations (storage degraded)
	pinReason string // why, for /statusz and logs
	calm      int    // consecutive observations below the current rung
	sinceMono time.Time

	// readStats is swappable in tests; defaults to runtime.ReadMemStats.
	readStats func(*runtime.MemStats)
	// numGoroutine likewise.
	numGoroutine func() int
}

// NewWatchdog builds a watchdog at Full, applying defaults.
func NewWatchdog(cfg BrownoutConfig) *Watchdog {
	return &Watchdog{
		cfg:          cfg.withDefaults(),
		readStats:    runtime.ReadMemStats,
		numGoroutine: runtime.NumGoroutine,
	}
}

// Observe feeds one observation of queue occupancy (waiting jobs /
// queue capacity, in [0,1]) and moves the ladder. Escalation is
// immediate; de-escalation requires ExitHold consecutive observations
// that justify a lower rung. Returns the level in force afterwards.
func (w *Watchdog) Observe(queueFrac float64) Level {
	want := w.target(queueFrac)

	w.mu.Lock()
	defer w.mu.Unlock()
	if w.pinned {
		// A pinned ladder still escalates (Drain beats CachedOnly) but
		// never recovers below the pin.
		if want > w.level {
			w.setLocked(want)
		}
		return w.level
	}
	switch {
	case want > w.level:
		w.setLocked(want)
	case want < w.level:
		w.calm++
		if w.calm >= w.cfg.ExitHold {
			// Step down one rung at a time; a hot ladder cools gradually.
			w.setLocked(w.level - 1)
		}
	default:
		w.calm = 0
	}
	return w.level
}

// target computes the rung the current signals call for.
func (w *Watchdog) target(queueFrac float64) Level {
	want := Full
	if queueFrac >= queueNoNewSweeps {
		want = NoNewSweeps
	}
	if queueFrac >= queueCachedOnly {
		want = CachedOnly
	}
	if w.cfg.MaxGoroutines > 0 && w.numGoroutine() > w.cfg.MaxGoroutines {
		if want < CachedOnly {
			want = CachedOnly
		}
	}
	if w.cfg.MaxHeapBytes > 0 {
		var ms runtime.MemStats
		w.readStats(&ms)
		heap := int64(ms.HeapAlloc)
		if heap > w.cfg.MaxHeapBytes*3/2 {
			want = Drain
		} else if heap > w.cfg.MaxHeapBytes && want < CachedOnly {
			want = CachedOnly
		}
	}
	return want
}

func (w *Watchdog) setLocked(l Level) {
	w.level = l
	w.calm = 0
	w.sinceMono = time.Now()
}

// Pin forces the ladder to at least the given level permanently —
// observations can escalate above it but never recover below. Used for
// terminal conditions like a degraded journal.
func (w *Watchdog) Pin(l Level, reason string) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.pinned = true
	w.pinReason = reason
	if l > w.level {
		w.setLocked(l)
	}
}

// Level reports the rung currently in force.
func (w *Watchdog) Level() Level {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.level
}

// Pinned reports whether the ladder is pinned and why.
func (w *Watchdog) Pinned() (bool, string) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.pinned, w.pinReason
}
