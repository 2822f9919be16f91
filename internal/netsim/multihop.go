package netsim

import (
	"context"
	"errors"
	"fmt"

	"bcnphase/internal/bcn"
	"bcnphase/internal/qcn"
	"bcnphase/internal/stats"
)

// MultihopConfig describes the two-switch congestion-spreading scenario
// from the paper's introduction: hot sources and one victim share the
// edge→core link; the hot flows overload core port A while the victim's
// port B is idle. Link-level PAUSE from the core blocks the shared link —
// head-of-line blocking the victim — and, as the edge queue then fills,
// the edge pauses all sources: congestion "rolls back from switch to
// switch, affecting flows that do not contribute to the congestion".
// BCN instead rate-limits only the hot flows at their sources.
type MultihopConfig struct {
	// HotSources is the number of flows destined to the congested core
	// port A.
	HotSources int
	// HotRate is each hot source's initial (or fixed) rate in bits/s.
	HotRate float64
	// VictimRate is the victim's fixed sending rate toward port B.
	VictimRate float64
	// LineRate caps controlled source rates.
	LineRate float64
	// LinkEX is the edge→core link capacity (bits/s).
	LinkEX float64
	// PortA and PortB are the core egress capacities (bits/s); the hot
	// aggregate must exceed PortA for the scenario to make sense.
	PortA, PortB float64
	// FrameBits is the frame size.
	FrameBits float64
	// BufEdge and BufA are the edge egress and core port A buffers in
	// bits (port B gets BufA as well; it never fills).
	BufEdge, BufA float64
	// PropDelay is the one-way delay of every link.
	PropDelay Nanos

	// BCN enables congestion control of the hot flows from core port A.
	BCN bool
	// Scheme selects the control scheme: SchemeBCN (default) or
	// SchemeQCN. NewMultihop refuses SchemeFERA and SchemeE2CM.
	Scheme Scheme
	// Q0, W, Pm, Ru, Gi, Gd are the BCN knobs (paper notation).
	Q0, W, Pm, Ru, Gi, Gd float64
	// MinRate floors controlled rates (default PortA/(100·HotSources)).
	MinRate float64

	// Pause enables link-level 802.3x PAUSE at both hops: core→edge
	// when port A exceeds QscA, edge→sources when the edge egress
	// exceeds QscEdge.
	Pause bool
	// QscA and QscEdge are the XOFF watermarks (defaults 0.75·buffer).
	QscA, QscEdge float64
	// PauseDuration is the pause quanta.
	PauseDuration Nanos
}

// Validate checks the scenario.
func (c MultihopConfig) Validate() error {
	switch {
	case c.HotSources <= 0:
		return fmt.Errorf("netsim: HotSources=%d must be positive", c.HotSources)
	case !(c.HotRate > 0) || !(c.VictimRate > 0):
		return fmt.Errorf("netsim: rates must be positive (hot=%v victim=%v)", c.HotRate, c.VictimRate)
	case !(c.LineRate > 0):
		return fmt.Errorf("netsim: LineRate=%v must be positive", c.LineRate)
	case !(c.LinkEX > 0) || !(c.PortA > 0) || !(c.PortB > 0):
		return fmt.Errorf("netsim: link capacities must be positive")
	case !(c.FrameBits > 0):
		return fmt.Errorf("netsim: FrameBits=%v must be positive", c.FrameBits)
	case !(c.BufEdge > 0) || !(c.BufA > 0):
		return fmt.Errorf("netsim: buffers must be positive")
	case c.PropDelay < 0:
		return fmt.Errorf("netsim: PropDelay must be non-negative")
	}
	if c.BCN {
		if !(c.Q0 > 0) || c.Q0 >= c.BufA {
			return fmt.Errorf("netsim: Q0=%v must be in (0, BufA)", c.Q0)
		}
		if !(c.W > 0) || !(c.Pm > 0) || c.Pm > 1 {
			return fmt.Errorf("netsim: BCN knobs invalid")
		}
		if c.Scheme == SchemeBCN && (!(c.Ru > 0) || !(c.Gi > 0) || !(c.Gd > 0)) {
			return fmt.Errorf("netsim: BCN gains invalid")
		}
	}
	if c.Pause && c.PauseDuration <= 0 {
		return fmt.Errorf("netsim: PauseDuration must be positive with Pause")
	}
	return nil
}

// mhQueue is one store-and-forward egress queue with a pausable server.
type mhQueue struct {
	id       int32 // index in MultihopNetwork.queues, the evDepart payload
	name     string
	capacity float64
	buffer   float64

	frames  ring[frame]
	bits    float64
	busy    bool
	paused  bool
	drops   uint64
	dropped float64
	maxBits float64

	// onDepart forwards a served frame; onDrain fires after each
	// departure for watermark checks.
	onDepart func(frame)
	onDrain  func()
}

func (q *mhQueue) enqueue(n *MultihopNetwork, f frame) bool {
	if q.bits+f.bits > q.buffer {
		q.drops++
		q.dropped += f.bits
		return false
	}
	q.frames.push(f)
	q.bits += f.bits
	if q.bits > q.maxBits {
		q.maxBits = q.bits
	}
	if !q.busy && !q.paused {
		q.busy = true
		q.serve(n)
	}
	return true
}

// serve starts transmitting the head-of-line frame unless the queue is
// empty or paused.
func (q *mhQueue) serve(n *MultihopNetwork) {
	if q.frames.len() == 0 || q.paused {
		q.busy = false
		return
	}
	tx := FromSeconds(q.frames.front().bits / q.capacity)
	if tx < 1 {
		tx = 1
	}
	_ = n.sim.after(tx, event{kind: evDepart, arg: q.id})
}

// depart completes the head-of-line frame's transmission.
func (q *mhQueue) depart(n *MultihopNetwork) {
	f := q.frames.pop()
	q.bits -= f.bits
	if q.bits < 0 {
		q.bits = 0
	}
	if q.onDepart != nil {
		q.onDepart(f)
	}
	if q.onDrain != nil {
		q.onDrain()
	}
	q.serve(n)
}

func (q *mhQueue) pause() { q.paused = true }

func (q *mhQueue) resume(n *MultihopNetwork) {
	if !q.paused {
		return
	}
	q.paused = false
	if !q.busy && q.frames.len() > 0 {
		q.busy = true
		q.serve(n)
	}
}

// MultihopNetwork is the instantiated two-switch scenario.
type MultihopNetwork struct {
	cfg MultihopConfig
	sim *Sim

	hot    []*Source
	victim *Source

	edge   *mhQueue   // E egress toward the core
	portA  *mhQueue   // core egress toward sink A (hot)
	portB  *mhQueue   // core egress toward sink B (victim)
	queues []*mhQueue // every queue, indexed by mhQueue.id

	cp CongestionController // at core port A when the control loop is on

	// PAUSE state per hop.
	coreXoff bool // core→edge (pauses the edge egress queue)
	edgeXoff bool // edge→sources

	pausesCoreToEdge uint64
	pausesEdgeToSrc  uint64

	victimDelivered float64
	hotDelivered    float64

	macToHot map[bcn.MAC]int

	// wires holds feedback frames in flight; rx is their decode buffer.
	wires wirePool
	rx    bcn.Message

	// ran marks a network whose Run has started (see ErrAlreadyRun).
	ran bool

	recT, recQA, recQE []float64
}

// dstVictim marks frames destined to port B.
const dstVictim = 1

// NewMultihop builds the scenario.
func NewMultihop(cfg MultihopConfig) (*MultihopNetwork, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.MinRate == 0 {
		cfg.MinRate = cfg.PortA / (100 * float64(cfg.HotSources))
	}
	if cfg.QscA == 0 {
		cfg.QscA = 0.75 * cfg.BufA
	}
	if cfg.QscEdge == 0 {
		cfg.QscEdge = 0.75 * cfg.BufEdge
	}
	n := &MultihopNetwork{
		cfg:      cfg,
		macToHot: make(map[bcn.MAC]int, cfg.HotSources),
	}
	n.sim = newSim(n.dispatch)
	var fbScale float64
	if cfg.BCN {
		switch cfg.Scheme {
		case SchemeBCN:
			cp, err := bcn.NewCongestionPoint(bcn.CPConfig{
				CPID: 1,
				SA:   bcn.MAC{0x02, 0xC0, 0, 0, 0, 0xA},
				Q0:   cfg.Q0,
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
				SA:   bcn.MAC{0x02, 0xC0, 0, 0, 0, 0xA},
				Qeq:  cfg.Q0,
				W:    cfg.W,
				Pm:   cfg.Pm,
			})
			if err != nil {
				return nil, fmt.Errorf("netsim: %w", err)
			}
			n.cp = cp
			fbScale = cp.Scale()
		default:
			return nil, fmt.Errorf("netsim: multihop supports SchemeBCN and SchemeQCN, got %v", cfg.Scheme)
		}
	}
	for i := 0; i < cfg.HotSources; i++ {
		src := &Source{id: i, mac: bcn.MAC{0x02, 0xA0, 0, 0, byte(i >> 8), byte(i)}}
		switch {
		case cfg.BCN && cfg.Scheme == SchemeQCN:
			rp, err := qcn.NewRateRegulator(
				qcn.DefaultRPConfig(cfg.MinRate, cfg.LineRate, fbScale),
				clampRate(cfg.HotRate, cfg.MinRate, cfg.LineRate))
			if err != nil {
				return nil, fmt.Errorf("netsim: %w", err)
			}
			src.rp = rp
			src.sendObs = rp
		case cfg.BCN:
			rp, err := bcn.NewReactionPoint(bcn.RPConfig{
				Ru: cfg.Ru, Gi: cfg.Gi, Gd: cfg.Gd,
				MinRate: cfg.MinRate, MaxRate: cfg.LineRate,
				Mode: bcn.ModeFluid,
			}, clampRate(cfg.HotRate, cfg.MinRate, cfg.LineRate))
			if err != nil {
				return nil, fmt.Errorf("netsim: %w", err)
			}
			src.rp = rp
		default:
			src.fixed = cfg.HotRate
		}
		n.hot = append(n.hot, src)
		n.macToHot[src.mac] = i
	}
	n.victim = &Source{id: cfg.HotSources, mac: bcn.MAC{0x02, 0xB0, 0, 0, 0, 1}, fixed: cfg.VictimRate}

	n.portA = n.newQueue("coreA", cfg.PortA, cfg.BufA)
	n.portB = n.newQueue("coreB", cfg.PortB, cfg.BufA)
	n.edge = n.newQueue("edge", cfg.LinkEX, cfg.BufEdge)

	n.portA.onDepart = func(f frame) {
		if n.cp != nil {
			n.cp.OnDeparture(f.bits)
		}
		n.hotDelivered += f.bits
	}
	n.portA.onDrain = func() {
		if n.coreXoff && n.portA.bits < 0.8*cfg.QscA {
			n.coreXoff = false
			_ = n.sim.After(cfg.PropDelay, func() { n.edge.resume(n) })
		}
	}
	n.portB.onDepart = func(f frame) { n.victimDelivered += f.bits }
	n.edge.onDepart = func(f frame) {
		_ = n.sim.afterLane(laneProp, cfg.PropDelay, event{kind: evForward, arg: int32(f.src), tag: f.rrt})
	}
	n.edge.onDrain = func() {
		if n.edgeXoff && n.edge.bits < 0.8*cfg.QscEdge {
			n.edgeXoff = false
			_ = n.sim.After(cfg.PropDelay, func() {
				for _, s := range n.hot {
					n.mhResume(s)
				}
				n.mhResume(n.victim)
			})
		}
	}
	return n, nil
}

// newQueue adds an egress queue to the network.
func (n *MultihopNetwork) newQueue(name string, capacity, buffer float64) *mhQueue {
	q := &mhQueue{id: int32(len(n.queues)), name: name, capacity: capacity, buffer: buffer}
	n.queues = append(n.queues, q)
	return q
}

// dispatch runs one typed event; see the package comment's event core.
func (n *MultihopNetwork) dispatch(ev event) {
	switch ev.kind {
	case evSend:
		n.mhSend(n.source(ev.arg))
	case evArrive:
		n.edgeArrive(n.frameFrom(ev))
	case evForward:
		n.coreArrive(n.frameFrom(ev))
	case evDepart:
		n.queues[ev.arg].depart(n)
	case evFeedback:
		n.receiveBCN(ev.arg)
	}
}

// source maps a source index to the hot source or, past them, the victim.
func (n *MultihopNetwork) source(i int32) *Source {
	if int(i) < len(n.hot) {
		return n.hot[i]
	}
	return n.victim
}

// frameFrom rebuilds the data frame an arrival event carries: every frame
// is FrameBits long and only the victim's go to port B.
func (n *MultihopNetwork) frameFrom(ev event) frame {
	f := frame{bits: n.cfg.FrameBits, src: int(ev.arg), rrt: ev.tag}
	if f.src == n.victim.id {
		f.dst = dstVictim
	}
	return f
}

// mhSend emits one frame from src toward its destination.
func (n *MultihopNetwork) mhSend(src *Source) {
	if src.paused {
		src.waiting = true
		return
	}
	f := frame{bits: n.cfg.FrameBits, src: src.id}
	if src == n.victim {
		f.rrt = 0
		f.dst = dstVictim
	} else if src.rp != nil {
		f.rrt = src.rp.Tag()
	}
	src.sentFrames++
	src.sentBits += f.bits
	if src.sendObs != nil {
		src.sendObs.OnSend(f.bits)
	}
	_ = n.sim.afterLane(laneProp, n.cfg.PropDelay, event{kind: evArrive, arg: int32(src.id), tag: f.rrt})
	gap := FromSeconds(n.cfg.FrameBits / src.RateAt(n.sim.Now().Seconds()))
	if gap < 1 {
		gap = 1
	}
	_ = n.sim.after(gap, event{kind: evSend, arg: int32(src.id)})
}

func (n *MultihopNetwork) mhResume(src *Source) {
	if !src.paused {
		return
	}
	src.paused = false
	if src.waiting {
		src.waiting = false
		n.mhSend(src)
	}
}

// edgeArrive handles a frame reaching the edge egress queue.
func (n *MultihopNetwork) edgeArrive(f frame) {
	n.edge.enqueue(n, f)
	if n.cfg.Pause && !n.edgeXoff && n.edge.bits > n.cfg.QscEdge {
		// Edge pauses every attached source: congestion rollback.
		n.edgeXoff = true
		n.pausesEdgeToSrc++
		n.edgeXoffLoop()
	}
}

// edgeXoffLoop refreshes the source-level pause while asserted.
func (n *MultihopNetwork) edgeXoffLoop() {
	if !n.edgeXoff {
		return
	}
	_ = n.sim.After(n.cfg.PropDelay, func() {
		for _, s := range n.hot {
			s.paused = true
		}
		n.victim.paused = true
	})
	refresh := n.cfg.PauseDuration / 2
	if refresh < 1 {
		refresh = 1
	}
	_ = n.sim.After(refresh, n.edgeXoffLoop)
}

// coreArrive classifies a frame onto its core egress port.
func (n *MultihopNetwork) coreArrive(f frame) {
	if f.dst == dstVictim {
		n.portB.enqueue(n, f)
		return
	}
	accepted := n.portA.enqueue(n, f)
	if accepted && n.cp != nil {
		var src *Source
		if f.src < len(n.hot) {
			src = n.hot[f.src]
		}
		if src != nil {
			msg := n.cp.OnArrival(bcn.Arrival{SizeBits: f.bits, Src: src.mac, RRT: f.rrt})
			if msg != nil {
				n.deliverMultihopBCN(msg)
			}
		}
	}
	if n.cfg.Pause && !n.coreXoff && n.portA.bits > n.cfg.QscA {
		// The core pauses the whole edge→core link: victim frames
		// to the idle port B are blocked too (head-of-line blocking).
		n.coreXoff = true
		n.pausesCoreToEdge++
		n.coreXoffLoop()
	}
}

// coreXoffLoop refreshes the link-level pause while asserted.
func (n *MultihopNetwork) coreXoffLoop() {
	if !n.coreXoff {
		return
	}
	_ = n.sim.After(n.cfg.PropDelay, func() { n.edge.pause() })
	refresh := n.cfg.PauseDuration / 2
	if refresh < 1 {
		refresh = 1
	}
	_ = n.sim.After(refresh, n.coreXoffLoop)
}

// deliverMultihopBCN routes a BCN message back to its hot source over two
// hops (core → edge → source).
func (n *MultihopNetwork) deliverMultihopBCN(msg *bcn.Message) {
	slot := n.wires.put(msg)
	_ = n.sim.after(2*n.cfg.PropDelay, event{kind: evFeedback, arg: slot})
}

// receiveBCN delivers the feedback frame in wire slot to its hot source.
func (n *MultihopNetwork) receiveBCN(slot int32) {
	rx := &n.rx
	if err := n.wires.decode(slot, rx); err != nil {
		return
	}
	idx, ok := n.macToHot[rx.DA]
	if !ok {
		return
	}
	if rp := n.hot[idx].rp; rp != nil {
		rp.OnMessage(rx, n.sim.Now().Seconds())
	}
}

// MultihopResult summarizes a run.
type MultihopResult struct {
	// VictimThroughput and HotThroughput are delivered bits/s.
	VictimThroughput, HotThroughput float64
	// VictimShare is VictimThroughput / VictimRate (1 = unharmed).
	VictimShare float64
	// DropsEdge and DropsA count losses at the two queues.
	DropsEdge, DropsA uint64
	// PausesCoreToEdge and PausesEdgeToSources count XOFF assertions.
	PausesCoreToEdge, PausesEdgeToSources uint64
	// MaxEdgeQueue and MaxPortAQueue are peak occupancies (bits).
	MaxEdgeQueue, MaxPortAQueue float64
	// QueueA and QueueEdge are the sampled occupancy series.
	QueueA, QueueEdge stats.Series
	// Events is the simulator event count.
	Events uint64
}

// Run executes the scenario for duration seconds. Run may be called once
// per MultihopNetwork; later calls return ErrAlreadyRun.
func (n *MultihopNetwork) Run(duration float64) (*MultihopResult, error) {
	return n.RunContext(context.Background(), duration)
}

// RunContext is Run with cooperative cancellation; a cancelled run
// returns the partial result collected so far alongside ctx.Err().
func (n *MultihopNetwork) RunContext(ctx context.Context, duration float64) (*MultihopResult, error) {
	if n.ran {
		return nil, ErrAlreadyRun
	}
	if duration <= 0 {
		return nil, errors.New("netsim: duration must be positive")
	}
	n.ran = true
	until := FromSeconds(duration)
	sampleEvery := recorderPeriod(until)
	// The hot sources, then the victim (whose index is len(n.hot)).
	for i := 0; i <= len(n.hot); i++ {
		if err := n.sim.schedule(0, event{kind: evSend, arg: int32(i)}); err != nil {
			return nil, err
		}
	}
	// The first sample is taken synchronously so an aborted run still
	// yields non-empty series.
	var rec func()
	rec = func() {
		n.recT = append(n.recT, n.sim.Now().Seconds())
		n.recQA = append(n.recQA, n.portA.bits)
		n.recQE = append(n.recQE, n.edge.bits)
		_ = n.sim.After(sampleEvery, rec)
	}
	rec()

	check, every := budgetCheck(ctx, n.sim, 0)
	runErr := n.sim.RunChecked(until, every, check)

	qa, err := stats.NewSeries(n.recT, n.recQA)
	if err != nil {
		return nil, fmt.Errorf("netsim: %w", err)
	}
	qe, err := stats.NewSeries(n.recT, n.recQE)
	if err != nil {
		return nil, fmt.Errorf("netsim: %w", err)
	}
	elapsed := n.sim.Now().Seconds()
	if elapsed <= 0 {
		elapsed = duration
	}
	victimTp := n.victimDelivered / elapsed
	res := &MultihopResult{
		VictimThroughput:    victimTp,
		HotThroughput:       n.hotDelivered / elapsed,
		VictimShare:         victimTp / n.cfg.VictimRate,
		DropsEdge:           n.edge.drops,
		DropsA:              n.portA.drops,
		PausesCoreToEdge:    n.pausesCoreToEdge,
		PausesEdgeToSources: n.pausesEdgeToSrc,
		MaxEdgeQueue:        n.edge.maxBits,
		MaxPortAQueue:       n.portA.maxBits,
		QueueA:              qa,
		QueueEdge:           qe,
		Events:              n.sim.Processed(),
	}
	if runErr != nil {
		return res, fmt.Errorf("netsim: run aborted at t=%.6fs: %w", elapsed, runErr)
	}
	return res, nil
}
