package netsim

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"math/bits"
	"math/rand"
	"sort"

	"bcnphase/internal/bcn"
	"bcnphase/internal/faults"
	"bcnphase/internal/fera"
	"bcnphase/internal/invariant"
	"bcnphase/internal/qcn"
	"bcnphase/internal/stats"
)

// Scheme selects the congestion-control algorithm.
type Scheme int

// Available schemes — the four 802.1Qau proposals the paper surveys.
const (
	// SchemeBCN is the BCN/ECM mechanism of the paper (default).
	SchemeBCN Scheme = iota
	// SchemeQCN is the quantized-feedback successor (internal/qcn).
	SchemeQCN
	// SchemeFERA is explicit rate advertising (internal/fera).
	SchemeFERA
	// SchemeE2CM is the BCN+FERA hybrid (internal/fera).
	SchemeE2CM
)

// String names the scheme.
func (s Scheme) String() string {
	switch s {
	case SchemeBCN:
		return "bcn"
	case SchemeQCN:
		return "qcn"
	case SchemeFERA:
		return "fera"
	case SchemeE2CM:
		return "e2cm"
	default:
		return fmt.Sprintf("Scheme(%d)", int(s))
	}
}

// CongestionController is the switch-side congestion-point hook; both
// bcn.CongestionPoint and qcn.CongestionPoint satisfy it.
type CongestionController interface {
	OnArrival(a bcn.Arrival) *bcn.Message
	OnDeparture(sizeBits float64)
	QueueBits() float64
	Stats() (samples, pos, neg uint64)
	Severe() bool
}

// RateController is the source-side regulator hook; both
// bcn.ReactionPoint and qcn.RateRegulator satisfy it.
type RateController interface {
	Rate(now float64) float64
	OnMessage(m *bcn.Message, now float64)
	Tag() bcn.CPID
}

// SendObserver is optionally implemented by rate controllers whose state
// machine advances with transmitted bytes (QCN's byte counter).
type SendObserver interface {
	OnSend(sizeBits float64)
}

var (
	_ CongestionController = (*bcn.CongestionPoint)(nil)
	_ RateController       = (*bcn.ReactionPoint)(nil)
	_ SendObserver         = (*qcn.RateRegulator)(nil)
	_ RateController       = (*qcn.RateRegulator)(nil)
	_ CongestionController = (*qcn.CongestionPoint)(nil)
	_ CongestionController = (*fera.CongestionPoint)(nil)
	_ RateController       = (*fera.RateRegulator)(nil)
	_ CongestionController = (*fera.E2CMCongestionPoint)(nil)
	_ RateController       = (*fera.E2CMRegulator)(nil)
)

// Config describes the dumbbell scenario: N homogeneous sources sending
// fixed-size frames through one bottleneck queue.
type Config struct {
	// N is the number of sources.
	N int
	// Capacity is the bottleneck service rate in bits/s.
	Capacity float64
	// LineRate caps each source's sending rate in bits/s.
	LineRate float64
	// FrameBits is the fixed data-frame size in bits (e.g. 12000 for
	// 1500-byte frames).
	FrameBits float64
	// BufferBits is the bottleneck buffer size B.
	BufferBits float64
	// PropDelay is the one-way propagation delay on every link.
	PropDelay Nanos
	// InitialRate is each source's starting rate in bits/s.
	InitialRate float64

	// BCN enables the congestion-control loop. When false the scenario
	// degenerates to the PAUSE-only (or uncontrolled) baseline.
	BCN bool
	// Scheme selects the congestion-control scheme when BCN is true:
	// SchemeBCN (default), SchemeQCN, SchemeFERA or SchemeE2CM.
	Scheme Scheme
	// Q0, Qsc, W, Pm configure the congestion point (paper notation).
	Q0, Qsc, W, Pm float64
	// Ru, Gi, Gd configure the reaction points.
	Ru, Gi, Gd float64
	// Mode selects the reaction-point gain law (default bcn.ModeFluid).
	Mode bcn.GainMode
	// MinRate floors source rates (default Capacity/(1000·N)).
	MinRate float64

	// Pause enables 802.3x PAUSE flow control with XOFF/XON
	// watermarks: XOFF (pause) is asserted when the queue exceeds Qsc
	// and XON (resume) is sent when it drains below 0.8·Qsc.
	Pause bool
	// PauseDuration is the pause quanta: a paused source resumes on its
	// own after this long even if no XON arrives (as 802.3x quanta
	// expire). XOFF is refreshed while the queue stays above Qsc.
	PauseDuration Nanos

	// StartTimes optionally staggers source start instants; when set it
	// must have length N. Sources with no entry (nil slice) start at 0.
	StartTimes []Nanos

	// Trace, when non-nil, receives one line per simulator event
	// (send/arrive/depart/drop/msg/pause) in an ns-2-like compact
	// format, for debugging and external analysis.
	Trace io.Writer

	// Seed seeds the start-offset desynchronization: each source's first
	// send is shifted by a uniform draw within one frame time (capped at
	// 1 s) to break phase lock. Zero selects a fixed default seed rather
	// than disabling randomization, so the zero Config still names
	// exactly one reproducible run; see the package comment for the
	// determinism contract.
	Seed int64

	// Faults optionally injects seeded, deterministic faults into the
	// control loop and data path (feedback loss/jitter/reorder/
	// corruption, data-frame loss, capacity flaps, sampling blackouts);
	// nil injects nothing. See internal/faults.
	Faults *faults.Config
	// MaxEvents bounds the number of simulator events one run may
	// process; 0 means unbounded. An exhausted budget aborts the run
	// with ErrEventBudget and a partial Result.
	MaxEvents uint64
	// PreAssociate tags every source with the congestion point from
	// t = 0 so positive feedback flows immediately (the fluid model's
	// continuous-feedback assumption); without it sources only begin
	// receiving positive BCN messages after their first negative one.
	PreAssociate bool

	// Invariants selects the runtime invariant-checking policy for the
	// run: event-queue ordering, queue occupancy within [0, B],
	// congestion-point/switch queue accounting agreement, and source
	// rates within [0, LineRate] at every recorder sample. Off (the zero
	// value) checks nothing; Record tallies violations into
	// Result.Invariants; Strict aborts the run at the first violation
	// with a *invariant.InvariantError; Clamp projects the switch
	// occupancy back into [0, B] and counts the correction.
	Invariants invariant.Policy

	// Metrics optionally attaches run telemetry (live event counts,
	// end-of-run feedback/fault/sojourn accounting). Nil is inert: the
	// event loop is untouched. Shared registries are safe — all
	// instruments are atomic — so a long-lived service can hand every
	// run the same Metrics.
	Metrics *Metrics
}

// Validate checks the scenario.
func (c Config) Validate() error {
	if !finiteAll(c.Capacity, c.LineRate, c.FrameBits, c.BufferBits,
		c.InitialRate, c.Q0, c.Qsc, c.W, c.Pm, c.Ru, c.Gi, c.Gd,
		c.MinRate) {
		return fmt.Errorf("netsim: non-finite scenario parameter")
	}
	switch {
	case c.N <= 0:
		return fmt.Errorf("netsim: N=%d must be positive", c.N)
	case !(c.Capacity > 0):
		return fmt.Errorf("netsim: Capacity=%v must be positive", c.Capacity)
	case !(c.LineRate > 0):
		return fmt.Errorf("netsim: LineRate=%v must be positive", c.LineRate)
	case !(c.FrameBits > 0):
		return fmt.Errorf("netsim: FrameBits=%v must be positive", c.FrameBits)
	case !(c.BufferBits > 0):
		return fmt.Errorf("netsim: BufferBits=%v must be positive", c.BufferBits)
	case c.PropDelay < 0:
		return fmt.Errorf("netsim: PropDelay=%d must be non-negative", c.PropDelay)
	case !(c.InitialRate > 0):
		return fmt.Errorf("netsim: InitialRate=%v must be positive", c.InitialRate)
	}
	if c.BCN {
		if !(c.Q0 > 0) || c.Q0 >= c.BufferBits {
			return fmt.Errorf("netsim: Q0=%v must be in (0, B)", c.Q0)
		}
		if !(c.W > 0) || !(c.Pm > 0) || c.Pm > 1 {
			return fmt.Errorf("netsim: W=%v, Pm=%v invalid", c.W, c.Pm)
		}
		if c.Scheme == SchemeBCN && (!(c.Ru > 0) || !(c.Gi > 0) || !(c.Gd > 0)) {
			return fmt.Errorf("netsim: gains Ru=%v Gi=%v Gd=%v must be positive", c.Ru, c.Gi, c.Gd)
		}
		if c.Scheme == SchemeE2CM && !(c.Gd > 0) {
			return fmt.Errorf("netsim: E2CM needs a positive Gd, got %v", c.Gd)
		}
	}
	if c.Pause {
		if !(c.Qsc > 0) || c.Qsc > c.BufferBits {
			return fmt.Errorf("netsim: Pause needs Qsc in (0, B], got %v", c.Qsc)
		}
		if c.PauseDuration <= 0 {
			return fmt.Errorf("netsim: PauseDuration=%d must be positive", c.PauseDuration)
		}
	}
	if c.StartTimes != nil && len(c.StartTimes) != c.N {
		return fmt.Errorf("netsim: StartTimes has %d entries, want N=%d", len(c.StartTimes), c.N)
	}
	for i, st := range c.StartTimes {
		if st < 0 {
			return fmt.Errorf("netsim: StartTimes[%d]=%d must be non-negative", i, st)
		}
	}
	if c.Faults != nil {
		if err := c.Faults.Validate(); err != nil {
			return fmt.Errorf("netsim: %w", err)
		}
	}
	if err := (invariant.Config{Policy: c.Invariants}).Validate(); err != nil {
		return fmt.Errorf("netsim: %w", err)
	}
	return nil
}

// finiteAll reports whether every argument is a finite float (NaN and
// ±Inf scenario parameters must fail validation, not poison a run).
func finiteAll(vs ...float64) bool {
	for _, v := range vs {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

// frame is one data frame in flight or queued.
type frame struct {
	bits float64
	src  int // source index
	dst  int // destination class (used by the multihop topology)
	rrt  bcn.CPID
	enq  Nanos // bottleneck enqueue time, for sojourn statistics
}

// Source is one sending host with a BCN reaction point.
type Source struct {
	id      int
	mac     bcn.MAC
	rp      RateController
	sendObs SendObserver // rp's byte-counter hook, when it has one
	fixed   float64      // fixed rate when rp == nil (no control)

	// paused is the 802.3x state; waiting marks a send loop that
	// stopped while paused and must be rearmed on resume; pauseExpire
	// is the current quanta deadline.
	paused      bool
	waiting     bool
	pauseExpire Nanos

	sentFrames uint64
	sentBits   float64
}

// RateAt returns the source's sending rate in bits/s at time now
// (seconds).
func (s *Source) RateAt(now float64) float64 {
	if s.rp == nil {
		return s.fixed
	}
	return s.rp.Rate(now)
}

// Network is an instantiated scenario.
type Network struct {
	cfg   Config
	sim   *Sim
	plan  *faults.Plan // nil when Config.Faults is nil
	guard *netGuard    // nil when Config.Invariants is Off

	sources []*Source
	cp      CongestionController // nil when the control loop is disabled

	queue     ring[frame]
	queueBits float64
	busy      bool

	// wires holds feedback frames in flight; rx is the decode buffer
	// for their delivery (rate controllers read the message inside
	// OnMessage and keep no reference to it).
	wires wirePool
	rx    bcn.Message

	// ran marks a Network whose Run has started; a second Run fails
	// with ErrAlreadyRun.
	ran bool

	pauseAsserted bool

	malformedMsgs    uint64
	misdeliveredMsgs uint64

	deliveredBits   float64
	deliveredFrames uint64
	droppedFrames   uint64
	droppedBits     float64
	pausesSent      uint64
	maxQueueBits    float64
	// minQueueAfterPeak tracks the deepest trough after the queue first
	// reaches Q0 (link-idle detection).
	everAboveQ0 bool
	minAfterQ0  float64

	macToSource map[bcn.MAC]int

	recQ, recRate []float64
	recT          []float64
	sojourns      []float64
}

// New builds the scenario.
func New(cfg Config) (*Network, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Mode == 0 {
		cfg.Mode = bcn.ModeFluid
	}
	if cfg.MinRate == 0 {
		cfg.MinRate = cfg.Capacity / (1000 * float64(cfg.N))
	}
	n := &Network{
		cfg:         cfg,
		macToSource: make(map[bcn.MAC]int, cfg.N),
		minAfterQ0:  cfg.BufferBits,
	}
	n.sim = newSim(n.dispatch)
	if cfg.Faults != nil {
		plan, err := faults.NewPlan(*cfg.Faults)
		if err != nil {
			return nil, fmt.Errorf("netsim: %w", err)
		}
		n.plan = plan
	}
	guard, err := newNetGuard(&n.cfg)
	if err != nil {
		return nil, fmt.Errorf("netsim: %w", err)
	}
	n.guard = guard
	var fbScale float64
	if cfg.BCN {
		switch cfg.Scheme {
		case SchemeBCN:
			cp, err := bcn.NewCongestionPoint(bcn.CPConfig{
				CPID: 1,
				SA:   bcn.MAC{0x02, 0xC0, 0, 0, 0, 1},
				Q0:   cfg.Q0,
				Qsc:  cfg.Qsc,
				W:    cfg.W,
				Pm:   cfg.Pm,
			})
			if err != nil {
				return nil, fmt.Errorf("netsim: %w", err)
			}
			n.cp = cp
		case SchemeQCN:
			cp, err := qcn.NewCongestionPoint(qcn.CPConfig{
				CPID: 1,
				SA:   bcn.MAC{0x02, 0xC0, 0, 0, 0, 1},
				Qeq:  cfg.Q0,
				W:    cfg.W,
				Pm:   cfg.Pm,
			})
			if err != nil {
				return nil, fmt.Errorf("netsim: %w", err)
			}
			n.cp = cp
			fbScale = cp.Scale()
		case SchemeFERA:
			cp, err := fera.NewCongestionPoint(fera.CPConfig{
				CPID:     1,
				SA:       bcn.MAC{0x02, 0xC0, 0, 0, 0, 1},
				Capacity: cfg.Capacity,
				Pm:       cfg.Pm,
			})
			if err != nil {
				return nil, fmt.Errorf("netsim: %w", err)
			}
			n.cp = cp
		case SchemeE2CM:
			cp, err := fera.NewE2CMCongestionPoint(bcn.CPConfig{
				CPID: 1,
				SA:   bcn.MAC{0x02, 0xC0, 0, 0, 0, 1},
				Q0:   cfg.Q0,
				Qsc:  cfg.Qsc,
				W:    cfg.W,
				Pm:   cfg.Pm,
			}, cfg.Capacity)
			if err != nil {
				return nil, fmt.Errorf("netsim: %w", err)
			}
			n.cp = cp
		default:
			return nil, fmt.Errorf("netsim: unknown scheme %v", cfg.Scheme)
		}
	}
	for i := 0; i < cfg.N; i++ {
		src := &Source{
			id:  i,
			mac: bcn.MAC{0x02, 0, 0, 0, byte(i >> 8), byte(i)},
		}
		rate := cfg.InitialRate
		switch {
		case cfg.BCN && cfg.Scheme == SchemeQCN:
			rp, err := qcn.NewRateRegulator(
				qcn.DefaultRPConfig(cfg.MinRate, cfg.LineRate, fbScale),
				clampRate(rate, cfg.MinRate, cfg.LineRate))
			if err != nil {
				return nil, fmt.Errorf("netsim: %w", err)
			}
			src.rp = rp
			src.sendObs = rp
		case cfg.BCN && cfg.Scheme == SchemeFERA:
			rp, err := fera.NewRateRegulator(cfg.MinRate, cfg.LineRate,
				clampRate(rate, cfg.MinRate, cfg.LineRate))
			if err != nil {
				return nil, fmt.Errorf("netsim: %w", err)
			}
			src.rp = rp
		case cfg.BCN && cfg.Scheme == SchemeE2CM:
			rp, err := fera.NewE2CMRegulator(cfg.Gd, cfg.MinRate, cfg.LineRate,
				clampRate(rate, cfg.MinRate, cfg.LineRate))
			if err != nil {
				return nil, fmt.Errorf("netsim: %w", err)
			}
			src.rp = rp
		case cfg.BCN:
			rp, err := bcn.NewReactionPoint(bcn.RPConfig{
				Ru: cfg.Ru, Gi: cfg.Gi, Gd: cfg.Gd,
				MinRate: cfg.MinRate, MaxRate: cfg.LineRate,
				Mode: cfg.Mode,
			}, clampRate(rate, cfg.MinRate, cfg.LineRate))
			if err != nil {
				return nil, fmt.Errorf("netsim: %w", err)
			}
			if cfg.PreAssociate {
				rp.Associate(1)
			}
			src.rp = rp
		default:
			src.fixed = rate
		}
		n.sources = append(n.sources, src)
		n.macToSource[src.mac] = i
	}
	return n, nil
}

func clampRate(r, lo, hi float64) float64 {
	if r < lo {
		return lo
	}
	if r > hi {
		return hi
	}
	return r
}

// Result summarizes one run.
type Result struct {
	// Queue is the sampled queue occupancy (bits vs seconds).
	Queue stats.Series
	// AggRate is the sampled aggregate source rate (bits/s).
	AggRate stats.Series
	// MaxQueueBits is the largest instantaneous occupancy seen.
	MaxQueueBits float64
	// MinQueueAfterFill is the smallest occupancy seen after the queue
	// first reached Q0 (link-starvation indicator); equals BufferBits
	// when the queue never reached Q0.
	MinQueueAfterFill float64
	// DroppedFrames and DroppedBits count buffer overflows.
	DroppedFrames uint64
	DroppedBits   float64
	// DeliveredBits counts bits through the bottleneck.
	DeliveredBits float64
	// Throughput is DeliveredBits / duration.
	Throughput float64
	// Utilization is Throughput / Capacity.
	Utilization float64
	// PausesSent counts PAUSE assertions.
	PausesSent uint64
	// Events is the number of simulator events processed.
	Events uint64
	// CPSamples, PosMessages, NegMessages are congestion point counters
	// (zero when BCN is off).
	CPSamples, PosMessages, NegMessages uint64
	// MeanSojourn and P99Sojourn summarize per-frame bottleneck
	// queueing+transmission delay in seconds.
	MeanSojourn, P99Sojourn float64
	// PerSourceSentBits is each source's offered load over the run.
	PerSourceSentBits []float64
	// JainIndex is Jain's fairness index over per-source sent bits:
	// (Σx)²/(n·Σx²); 1 is perfectly fair.
	JainIndex float64
	// Faults counts the faults actually injected (zero when
	// Config.Faults is nil).
	Faults faults.Stats
	// MalformedMsgs counts feedback frames the receiver rejected at
	// decode or validation (nonzero only under corruption faults).
	MalformedMsgs uint64
	// MisdeliveredMsgs counts feedback frames whose destination MAC
	// matched no source (a corrupted address field).
	MisdeliveredMsgs uint64
	// SimSeconds is the simulated time actually covered; it is shorter
	// than the requested duration when a run was aborted by a budget.
	SimSeconds float64
	// Invariants tallies the runtime invariant violations observed under
	// Config.Invariants (zero when checking is off or the run was clean).
	Invariants invariant.Stats
}

// sojournStats returns the mean and 99th percentile of the sojourn
// samples (0, 0 for an empty run). The mean sums v in delivery order; the
// p99 is the ⌈0.99·n⌉-th smallest sample, found by selectKth, which
// reorders v in place.
func sojournStats(v []float64) (mean, p99 float64) {
	if len(v) == 0 {
		return 0, 0
	}
	sum := 0.0
	for _, x := range v {
		sum += x
	}
	mean = sum / float64(len(v))
	idx := int(math.Ceil(0.99*float64(len(v)))) - 1
	if idx < 0 {
		idx = 0
	}
	return mean, selectKth(v, idx)
}

// selectKth returns the k-th smallest element of v (0-based), reordering v
// in place. It is a quickselect with a median-of-three pivot and a
// three-way partition, so a run of equal values (an idle queue gives many
// frames the same sojourn) settles in one pass; after 2·log₂n rounds
// without converging it sorts what is left, which bounds the worst case
// at O(n log n). v must hold no NaN.
func selectKth(v []float64, k int) float64 {
	lo, hi := 0, len(v) // v[k] lies in v[lo:hi]
	for rounds := 2 * bits.Len(uint(len(v))); hi-lo > 1; rounds-- {
		if rounds == 0 {
			sort.Float64s(v[lo:hi])
			break
		}
		p := median3(v[lo], v[lo+(hi-lo)/2], v[hi-1])
		// Partition into v[lo:lt] < p, v[lt:gt] == p, v[gt:hi] > p.
		lt, i, gt := lo, lo, hi
		for i < gt {
			switch x := v[i]; {
			case x < p:
				v[lt], v[i] = x, v[lt]
				lt++
				i++
			case x > p:
				gt--
				v[i], v[gt] = v[gt], x
			default:
				i++
			}
		}
		switch {
		case k < lt:
			hi = lt
		case k >= gt:
			lo = gt
		default:
			return p
		}
	}
	return v[k]
}

// median3 returns the median of a, b and c.
func median3(a, b, c float64) float64 {
	if a > b {
		a, b = b, a
	}
	if b > c {
		b = c
	}
	if a > b {
		return a
	}
	return b
}

// jainIndex computes Jain's fairness index of the given allocations.
func jainIndex(x []float64) float64 {
	if len(x) == 0 {
		return 0
	}
	var sum, sumSq float64
	for _, v := range x {
		sum += v
		sumSq += v * v
	}
	if sumSq == 0 {
		return 1 // everyone got exactly zero: degenerate but equal
	}
	return sum * sum / (float64(len(x)) * sumSq)
}

// ErrEventBudget signals that Config.MaxEvents was exhausted; RunContext
// returns it (wrapped) alongside a partial Result.
var ErrEventBudget = errors.New("netsim: event budget exceeded")

// ErrAlreadyRun is returned by Run and RunContext on a Network or
// MultihopNetwork that has already been run: a network's clock, queues
// and recorder continue from where the first run left them, so it
// cannot be run again. Build a fresh one with New or NewMultihop.
var ErrAlreadyRun = errors.New("netsim: network already run")

// defaultSeed stands in for Config.Seed == 0 so the zero Config still
// denotes one fixed, reproducible draw of start offsets rather than a
// special synchronized mode.
const defaultSeed int64 = 0x62636e73 // "bcns"

// recorderPeriod is the recorder's sample period for a run to until:
// 1000 samples over the run, at least 1 ns apart.
func recorderPeriod(until Nanos) Nanos {
	return max(until/1000, 1)
}

// budgetCheckEvery is how many events pass between budget checks; small
// enough to abort promptly, large enough to keep the check off the hot
// path.
const budgetCheckEvery uint64 = 1024

// budgetCheck builds the RunChecked hook enforcing context cancellation
// and the event budget (0 means unbounded); it returns (nil, 0) when
// nothing is bounded so the engine skips checking entirely.
func budgetCheck(ctx context.Context, sim *Sim, maxEvents uint64) (func() error, uint64) {
	if ctx == nil {
		ctx = context.Background()
	}
	if ctx.Done() == nil && maxEvents == 0 {
		return nil, 0
	}
	return func() error {
		if err := ctx.Err(); err != nil {
			return err
		}
		if maxEvents > 0 && sim.Processed() >= maxEvents {
			return fmt.Errorf("%w: %d events", ErrEventBudget, sim.Processed())
		}
		return nil
	}, budgetCheckEvery
}

// Run executes the scenario for the given duration (seconds) and returns
// the collected result. Run may be called once per Network; later calls
// return ErrAlreadyRun.
func (n *Network) Run(duration float64) (*Result, error) {
	return n.RunContext(context.Background(), duration)
}

// RunContext is Run with cooperative cancellation: the run aborts when
// ctx is cancelled or Config.MaxEvents is exhausted. An aborted run
// returns the partial Result collected so far alongside the cause
// (ctx.Err() or ErrEventBudget) — callers that can use a truncated
// trajectory get one instead of a hang.
func (n *Network) RunContext(ctx context.Context, duration float64) (*Result, error) {
	if n.ran {
		return nil, ErrAlreadyRun
	}
	if duration <= 0 {
		return nil, errors.New("netsim: duration must be positive")
	}
	n.ran = true
	until := FromSeconds(duration)
	sampleEvery := recorderPeriod(until)

	seed := n.cfg.Seed
	if seed == 0 {
		seed = defaultSeed
	}
	rng := rand.New(rand.NewSource(seed))
	window := int64(FromSeconds(n.cfg.FrameBits / n.cfg.Capacity))
	const maxWindow = int64(1e9) // cap desync jitter at 1 s
	if window > maxWindow {
		window = maxWindow
	}
	if window < 0 {
		window = 0
	}
	for i, src := range n.sources {
		offset := Nanos(0)
		if n.cfg.StartTimes != nil {
			offset = n.cfg.StartTimes[i]
		}
		offset += Nanos(rng.Int63n(window + 1))
		if err := n.sim.schedule(offset, event{kind: evSend, arg: int32(src.id)}); err != nil {
			return nil, err
		}
	}
	// Recorder: the first sample is taken synchronously so even a run
	// aborted before its first event yields a non-empty series.
	var rec func()
	rec = func() {
		n.recT = append(n.recT, n.sim.Now().Seconds())
		n.recQ = append(n.recQ, n.queueBits)
		agg := 0.0
		nowSec := n.sim.Now().Seconds()
		for i, s := range n.sources {
			r := s.RateAt(nowSec)
			n.guard.sourceRate(n.sim.Now(), i, r)
			agg += r
		}
		n.recRate = append(n.recRate, agg)
		if n.cfg.Metrics != nil {
			n.cfg.Metrics.QueueBits.Set(n.queueBits)
		}
		_ = n.sim.After(sampleEvery, rec)
	}
	rec()

	if n.guard.enabled() {
		n.sim.Monitor = n.guard.monitor
	}
	if m := n.cfg.Metrics; m != nil {
		// Chain the live event counter in front of whatever monitor is
		// already installed so an in-flight run is visible on /metrics.
		prev := n.sim.Monitor
		events := m.Events
		n.sim.Monitor = func(at Nanos) error {
			events.Inc()
			if prev != nil {
				return prev(at)
			}
			return nil
		}
	}
	check, every := budgetCheck(ctx, n.sim, n.cfg.MaxEvents)
	runErr := n.sim.RunChecked(until, every, check)

	qs, err := stats.NewSeries(n.recT, n.recQ)
	if err != nil {
		return nil, fmt.Errorf("netsim: queue series: %w", err)
	}
	rs, err := stats.NewSeries(n.recT, n.recRate)
	if err != nil {
		return nil, fmt.Errorf("netsim: rate series: %w", err)
	}
	// Normalize throughput by the time actually simulated, so a partial
	// result is still internally consistent.
	elapsed := n.sim.Now().Seconds()
	if elapsed <= 0 {
		elapsed = duration
	}
	perSource := make([]float64, len(n.sources))
	for i, src := range n.sources {
		perSource[i] = src.sentBits
	}
	res := &Result{
		Queue:             qs,
		AggRate:           rs,
		MaxQueueBits:      n.maxQueueBits,
		MinQueueAfterFill: n.minAfterQ0,
		DroppedFrames:     n.droppedFrames,
		DroppedBits:       n.droppedBits,
		DeliveredBits:     n.deliveredBits,
		Throughput:        n.deliveredBits / elapsed,
		Utilization:       n.deliveredBits / elapsed / n.cfg.Capacity,
		PausesSent:        n.pausesSent,
		Events:            n.sim.Processed(),
		PerSourceSentBits: perSource,
		JainIndex:         jainIndex(perSource),
		Faults:            n.plan.Stats(),
		MalformedMsgs:     n.malformedMsgs,
		MisdeliveredMsgs:  n.misdeliveredMsgs,
		SimSeconds:        elapsed,
		Invariants:        n.guard.stats(),
	}
	if n.cp != nil {
		res.CPSamples, res.PosMessages, res.NegMessages = n.cp.Stats()
	}
	// Metrics fold the sojourns in delivery order, before the p99
	// selection reorders them.
	if m := n.cfg.Metrics; m != nil {
		m.observe(res, n.sojourns)
	}
	res.MeanSojourn, res.P99Sojourn = sojournStats(n.sojourns)
	if runErr != nil {
		return res, fmt.Errorf("netsim: run aborted at t=%.6fs: %w", elapsed, runErr)
	}
	return res, nil
}

// trace emits one event line to Config.Trace. Call sites check that
// tracing is enabled first, so an untraced run never boxes the arguments.
func (n *Network) trace(format string, args ...any) {
	fmt.Fprintf(n.cfg.Trace, "%.9f "+format+"\n",
		append([]any{n.sim.Now().Seconds()}, args...)...)
}

// dispatch runs one typed event; see the package comment's event core.
func (n *Network) dispatch(ev event) {
	switch ev.kind {
	case evSend:
		n.sourceSend(n.sources[ev.arg])
	case evArrive:
		n.switchArrive(frame{bits: n.cfg.FrameBits, src: int(ev.arg), rrt: ev.tag})
	case evDepart:
		n.depart()
	case evFeedback:
		n.receiveBCN(ev.arg)
	}
}

// sourceSend emits one frame from src and reschedules itself.
func (n *Network) sourceSend(src *Source) {
	if src.paused {
		// Silenced by PAUSE: the resume path rearms the loop.
		src.waiting = true
		return
	}
	f := frame{bits: n.cfg.FrameBits, src: src.id}
	if src.rp != nil {
		f.rrt = src.rp.Tag()
	}
	src.sentFrames++
	src.sentBits += f.bits
	if n.cfg.Trace != nil {
		n.trace("+ src=%d bits=%.0f", src.id, f.bits)
	}
	if src.sendObs != nil {
		src.sendObs.OnSend(f.bits)
	}
	// Frame reaches the bottleneck after the propagation delay — unless
	// the fault plan loses it on the link.
	if n.plan.DropData() {
		if n.cfg.Trace != nil {
			n.trace("x src=%d bits=%.0f", src.id, f.bits)
		}
	} else {
		_ = n.sim.afterLane(laneProp, n.cfg.PropDelay, event{kind: evArrive, arg: int32(src.id), tag: f.rrt})
	}
	// Next departure paced by the current rate.
	gap := FromSeconds(n.cfg.FrameBits / src.RateAt(n.sim.Now().Seconds()))
	if gap < 1 {
		gap = 1
	}
	_ = n.sim.after(gap, event{kind: evSend, arg: int32(src.id)})
}

// switchArrive handles a frame arriving at the bottleneck queue.
func (n *Network) switchArrive(f frame) {
	if n.queueBits+f.bits > n.cfg.BufferBits {
		n.droppedFrames++
		n.droppedBits += f.bits
		if n.cfg.Trace != nil {
			n.trace("d src=%d bits=%.0f q=%.0f", f.src, f.bits, n.queueBits)
		}
		return
	}
	f.enq = n.sim.Now()
	n.queue.push(f)
	n.queueBits += f.bits
	n.queueBits = n.guard.queue(n.sim.Now(), n.queueBits)
	if n.queueBits > n.maxQueueBits {
		n.maxQueueBits = n.queueBits
	}
	if n.cp != nil {
		src := n.sources[f.src]
		msg := n.cp.OnArrival(bcn.Arrival{SizeBits: f.bits, Src: src.mac, RRT: f.rrt})
		n.guard.cpSync(n.sim.Now(), n.queueBits, n.cp.QueueBits())
		if msg != nil {
			// Sampling blackouts suppress the generated feedback while
			// the congestion point's queue accounting continues.
			if n.plan.SampleBlanked(int64(n.sim.Now())) {
				if n.cfg.Trace != nil {
					n.trace("b sigma=%.0f", msg.Sigma)
				}
			} else {
				n.deliverBCN(msg)
			}
		}
	}
	n.trackTrough()
	if n.cfg.Pause && n.queueBits > n.cfg.Qsc {
		n.assertPause()
	}
	if !n.busy {
		n.busy = true
		n.serveNext()
	}
}

// serveNext starts transmitting the head-of-line frame.
func (n *Network) serveNext() {
	if n.queue.len() == 0 {
		n.busy = false
		return
	}
	// Capacity flaps scale the service rate for the frame's duration.
	capacity := n.cfg.Capacity * n.plan.CapacityScale(int64(n.sim.Now()))
	txTime := FromSeconds(n.queue.front().bits / capacity)
	if txTime < 1 {
		txTime = 1
	}
	_ = n.sim.afterLane(laneDepart, txTime, event{kind: evDepart})
}

// depart completes the head-of-line frame's transmission and starts the
// next one.
func (n *Network) depart() {
	f := n.queue.pop()
	n.queueBits -= f.bits
	if n.queueBits < 0 {
		n.queueBits = 0
	}
	n.queueBits = n.guard.queue(n.sim.Now(), n.queueBits)
	if n.cp != nil {
		n.cp.OnDeparture(f.bits)
		n.guard.cpSync(n.sim.Now(), n.queueBits, n.cp.QueueBits())
	}
	n.deliveredBits += f.bits
	n.deliveredFrames++
	if n.cfg.Trace != nil {
		n.trace("- src=%d bits=%.0f q=%.0f", f.src, f.bits, n.queueBits)
	}
	n.sojourns = append(n.sojourns, (n.sim.Now() - f.enq).Seconds())
	n.trackTrough()
	if n.pauseAsserted && n.queueBits < n.pauseLow() {
		n.releasePause()
	}
	n.serveNext()
}

// deliverBCN puts the message on the wire and schedules its decoded
// delivery at the source after the propagation delay, exercising the full
// encode/decode path including feedback quantization. The fault plan may
// drop the frame, add jitter/reorder delay, or flip a wire bit; the
// receiver rejects frames that fail decoding or validation.
func (n *Network) deliverBCN(msg *bcn.Message) {
	if n.plan.DropFeedback() {
		if n.cfg.Trace != nil {
			n.trace("fd sigma=%.0f", msg.Sigma)
		}
		return
	}
	slot := n.wires.put(msg)
	if n.plan.CorruptFeedback(n.wires.wire(slot)) {
		if n.cfg.Trace != nil {
			n.trace("fc sigma=%.0f", msg.Sigma)
		}
	}
	ev := event{kind: evFeedback, arg: slot}
	if jitter := n.plan.FeedbackDelayNs(); jitter != 0 {
		// Jittered or reordered frames overtake one another: heap.
		_ = n.sim.after(n.cfg.PropDelay+Nanos(jitter), ev)
	} else {
		_ = n.sim.afterLane(laneProp, n.cfg.PropDelay, ev)
	}
}

// receiveBCN delivers the feedback frame in wire slot to its source.
func (n *Network) receiveBCN(slot int32) {
	rx := &n.rx
	if err := n.wires.decode(slot, rx); err != nil {
		n.malformedMsgs++
		return
	}
	if err := rx.Validate(); err != nil {
		n.malformedMsgs++
		return
	}
	idx, ok := n.macToSource[rx.DA]
	if !ok {
		n.misdeliveredMsgs++
		return
	}
	src := n.sources[idx]
	if src.rp != nil {
		src.rp.OnMessage(rx, n.sim.Now().Seconds())
		if n.cfg.Trace != nil {
			n.trace("m src=%d sigma=%.0f rate=%.0f", idx, rx.Sigma, src.rp.Rate(n.sim.Now().Seconds()))
		}
	}
}

// pauseLow is the XON watermark.
func (n *Network) pauseLow() float64 { return 0.8 * n.cfg.Qsc }

// assertPause raises the XOFF state and starts the refresh loop: the
// switch re-sends XOFF every half quanta while the queue stays above the
// low watermark, as real 802.3x/PFC implementations do, so paused sources
// do not leak traffic through quanta expiry.
func (n *Network) assertPause() {
	if n.pauseAsserted {
		return
	}
	n.pauseAsserted = true
	n.pausesSent++
	if n.cfg.Trace != nil {
		n.trace("p xoff q=%.0f", n.queueBits)
	}
	n.xoffRefresh()
}

// xoffRefresh delivers one XOFF to every source and reschedules itself
// while the pause state is asserted.
func (n *Network) xoffRefresh() {
	if !n.pauseAsserted {
		return
	}
	expire := n.sim.Now() + n.cfg.PropDelay + n.cfg.PauseDuration
	_ = n.sim.After(n.cfg.PropDelay, func() {
		for _, src := range n.sources {
			src.paused = true
			if expire > src.pauseExpire {
				src.pauseExpire = expire
			}
			s := src
			_ = n.sim.At(expire, func() { n.pauseQuantaExpire(s) })
		}
	})
	refresh := n.cfg.PauseDuration / 2
	if refresh < 1 {
		refresh = 1
	}
	_ = n.sim.After(refresh, n.xoffRefresh)
}

// pauseQuantaExpire resumes a source whose pause quanta ran out.
func (n *Network) pauseQuantaExpire(src *Source) {
	if !src.paused || n.sim.Now() < src.pauseExpire {
		return // released earlier, or the quanta were refreshed
	}
	n.resumeSource(src)
}

// releasePause sends XON toward every source.
func (n *Network) releasePause() {
	n.pauseAsserted = false
	_ = n.sim.After(n.cfg.PropDelay, func() {
		for _, src := range n.sources {
			n.resumeSource(src)
		}
	})
}

func (n *Network) resumeSource(src *Source) {
	if !src.paused {
		return
	}
	src.paused = false
	src.pauseExpire = 0
	if src.waiting {
		src.waiting = false
		n.sourceSend(src)
	}
}

func (n *Network) trackTrough() {
	if n.cfg.Q0 <= 0 {
		return
	}
	if !n.everAboveQ0 {
		if n.queueBits >= n.cfg.Q0 {
			n.everAboveQ0 = true
		}
		return
	}
	if n.queueBits < n.minAfterQ0 {
		n.minAfterQ0 = n.queueBits
	}
}

// Sources exposes the sources for inspection in tests and experiments.
func (n *Network) Sources() []*Source { return n.sources }
