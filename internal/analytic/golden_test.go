package analytic_test

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"bcnphase/internal/analytic"
	"bcnphase/internal/cluster"
	"bcnphase/internal/core"
	"bcnphase/internal/invariant"
)

// goldenCase is one stitched-solve scenario. Its digests pin core.Solve
// (the JSON Trajectory plus the error text) and the analytic engine's
// Result under ModeOn and ModeOff for the same parameter point.
type goldenCase struct {
	name   string
	params func() core.Params
	// opts builds the core.Solve options; a fresh invariant checker is
	// attached per run from policy.
	opts   func(p core.Params) core.SolveOptions
	policy invariant.Policy
	// core, on, off are sha-256 digests of the three engine outputs.
	core, on, off string
}

// nearDegenerate puts the increase regime a relative 1e-13 above the
// repeated-eigenvalue threshold, inside core.ArcDiscTol's band.
func nearDegenerate() core.Params {
	p := core.PaperExample()
	p.Gi = p.AThreshold() / (p.Ru * float64(p.N)) * (1 + 1e-13)
	return p
}

func negativeGd() core.Params {
	p := core.FigureExample()
	p.Gd = -p.Gd
	return p
}

// violatingStart launches below the rate floor (aggregate rate −0.2·C),
// so the first samples break rate-bounds before the queue underflows.
func violatingStart(p core.Params) core.SolveOptions {
	return core.SolveOptions{Start: &[2]float64{-p.Q0 / 2, -1.2 * p.C}}
}

// startAt launches from an extreme state whose closed forms overflow to
// ±Inf or NaN within a few arcs; MaxArcs keeps the run short.
func startAt(x, y float64) func(core.Params) core.SolveOptions {
	return func(core.Params) core.SolveOptions {
		return core.SolveOptions{Start: &[2]float64{x, y}, MaxArcs: 8}
	}
}

func caseExample(k core.CaseKind) func() core.Params {
	return func() core.Params { return core.CaseExample(k) }
}

func defaults(core.Params) core.SolveOptions { return core.SolveOptions{} }

// criticalGains are the figure example's gains at which the increase
// (Gi) and decrease (Gd) regimes have a repeated eigenvalue.
func criticalGains() (gi, gd float64) {
	p := core.FigureExample()
	return p.AThreshold() / (p.Ru * float64(p.N)), p.BThreshold()
}

// figureGains is the figure example with Gi and Gd at the given
// multiples of the critical gains.
func figureGains(giMul, gdMul float64) func() core.Params {
	return func() core.Params {
		p := core.FigureExample()
		gi, gd := criticalGains()
		p.Gi, p.Gd = giMul*gi, gdMul*gd
		return p
	}
}

// drain launches from half the target queue with the aggregate rate
// falling at rateMul·C, fast enough that the first arc empties the
// queue: a floor hit refined inside a non-canonical first arc.
func drain(rateMul float64) func(core.Params) core.SolveOptions {
	return func(p core.Params) core.SolveOptions {
		return core.SolveOptions{Start: &[2]float64{-p.Q0 / 2, -rateMul * p.C}}
	}
}

// floorCases name the golden cases that hit the floor on their first
// arc, with the arc family each must exercise.
var floorCases = map[string]core.ArcKind{
	"floor-spiral":   core.ArcSpiral,
	"floor-node":     core.ArcNode,
	"floor-critical": core.ArcCritical,
}

var goldenCases = []goldenCase{
	{name: "paper", params: core.PaperExample, opts: defaults,
		core: "648c5727c1c4ab76a9d80617fd4f7520630866369415a916ab61637a2761bbbf",
		on:   "efd6a6f44599652b9d38886d2184683e9617189feae76b0d6a517b5c3b801a9e",
		off:  "8f306216d7e96327ba6a49ac4db9a3007038785115be03b826cb95be6f2bfd4f"},
	{name: "figure", params: core.FigureExample, opts: defaults,
		core: "80a62fb96359e97855a2cb18310b5f748bc82be60b37d1576582d6557a5218ea",
		on:   "80325127bcc02d7388c841557c5b60fbe58e99736103d6dd185b46c6d0e99a4e",
		off:  "c43cae2e0b2af1f553538c0c6d0cb4f951e12292d51f840d1e5b76706f1fb8d8"},
	{name: "case2", params: caseExample(core.Case2), opts: defaults,
		core: "924c2fe24e8a675cf3ac24cc1f4ade55dd45069ea8570de5d9946617816c0c17",
		on:   "2f338bbdc3fa11565d05dd8dc9f5b9d13c7b3dbdb0cf3623c6aef9f66ad046d0",
		off:  "fe57e3c9018226e7620fb2799428a568a688730da9048d3ad227de014c0129aa"},
	{name: "case3", params: caseExample(core.Case3), opts: defaults,
		core: "2d145bfb43208817f978d4aec9f11ff89b8c63cf00bd5af84a2c899d8cb74fe3",
		on:   "4752a93b452235e611e9d729ac8737d44da959d6deb4924ed3f495a04334b141",
		off:  "562242b96eff2eefc3ca2663fc7946a8c228486cbca0695492e0779bed3bf381"},
	{name: "case4", params: caseExample(core.Case4), opts: defaults,
		core: "61b80999e0000bdf1b165decb56ba4ae9ca8a262d5e5fe402d2399ca32073117",
		on:   "9d5fd71ac1271d9f24e315820da0e05833f9ff940adabb1de58409f41d30e2b6",
		off:  "80e161a761d1c669814c84fa19cd232b33ec5b1d357d4184e95de53eb80930fc"},
	{name: "case5", params: caseExample(core.Case5), opts: defaults,
		core: "96e820e628db02041b9f916eca1232e2c807467754cfe77a3b38875679e070ce",
		on:   "00799e9117720dc2fbc4c40ab69a35e04730d85dd68078e08d81e3bc95fa3c13",
		off:  "4e5edecb178f2561ba17578a7a1673f1c8fef666b5b627d66f00a4703c9b281d"},
	{name: "near-degenerate", params: nearDegenerate, opts: defaults,
		core: "8c6bebfe0ecdaed2dac05d5ddd4d9db17231162701b7f6ba7ab0a24405acc42d",
		on:   "58e30ed79c8827fc47ec6afebaec402f70cd3b51c450beffa5bae56cf07a27db",
		off:  "06ab8ed7db69911e183e3b897db6b1160599759cebc15bd1d7b36fac8a97bf93"},
	{name: "warmup", params: core.FigureExample,
		opts: func(p core.Params) core.SolveOptions {
			mu := p.C / float64(p.N) / 4
			return core.SolveOptions{WarmupFromRate: &mu}
		},
		core: "620c9cba9c162f1ac9fd31e22f146676f9de46503b3ddc8d60a99fb3f5798740",
		on:   "80325127bcc02d7388c841557c5b60fbe58e99736103d6dd185b46c6d0e99a4e",
		off:  "c43cae2e0b2af1f553538c0c6d0cb4f951e12292d51f840d1e5b76706f1fb8d8"},
	{name: "ignore-buffer", params: core.PaperExample,
		opts: func(core.Params) core.SolveOptions { return core.SolveOptions{IgnoreBuffer: true} },
		core: "0315229c84024e7fa0896e57801b8e751305f34e05c5c9b2cf70b9ea4ff8add0",
		on:   "63ccbce741d25e568a99ee7fef5d1dca6aa6ed5f0919bc27aa1810359beb5971",
		off:  "69ab52697d7a13304a4ed3ec4b0af611212687ddfe7f40001f5994bce9ffdba3"},
	{name: "start", params: core.FigureExample,
		opts: func(p core.Params) core.SolveOptions {
			return core.SolveOptions{Start: &[2]float64{p.Q0 / 3, 0.2 * p.C}}
		},
		core: "73c5079d0225043c93e641791795ba40e7173499f8b45513af9725a3e88acd07",
		on:   "5c728bed969e82516c045ed80eb159339e4d6193eff7e8f2108a766a5603dacd",
		off:  "2b4ce2cb1fa13c1d9e1b465d7fd52b886a6fbaa79b1bf4e610e15972813e523b"},
	{name: "no-short-circuit", params: core.FigureExample,
		opts: func(core.Params) core.SolveOptions {
			return core.SolveOptions{DisableShortCircuit: true, MaxArcs: 400}
		},
		core: "b49bf08b17773f0894f78bf5b72895690e575bc69a8551868085dbb938a191da",
		on:   "5ecf8310ac1091672c05211a6c9d321976742cf1bae18d567a0be7f30bbc2156",
		off:  "3a42721195def12a0667048da90067aa305e22fbb673fba4d08751ca227dc881"},
	{name: "samples-17", params: caseExample(core.Case3),
		opts: func(core.Params) core.SolveOptions { return core.SolveOptions{SamplesPerArc: 17} },
		core: "9cf83946d66dfccadb2fd1a752e04328e5e4ceb9dca05b738f2dc2c480a3cef6",
		on:   "4752a93b452235e611e9d729ac8737d44da959d6deb4924ed3f495a04334b141",
		off:  "562242b96eff2eefc3ca2663fc7946a8c228486cbca0695492e0779bed3bf381"},
	{name: "violations-record", params: core.FigureExample, opts: violatingStart, policy: invariant.Record,
		core: "d29d59d80d549ac87a08ae88c42eaed36c1a98fd4d1a1326a49fa7407e166c34",
		on:   "d94d79d13e811e05952260b27fafba615156096b04d7c43142e1e02ab645b3a6",
		off:  "7823dc8b663f7744d429a9fd14cfe8ac6b80486c95b05cd73b4af8d59d52b439"},
	{name: "violations-clamp", params: core.FigureExample, opts: violatingStart, policy: invariant.Clamp,
		core: "c59482ebdd038eb584ba0d8915d1d4a107b9e87dff0121b85b20e485dc4c2598",
		on:   "d94d79d13e811e05952260b27fafba615156096b04d7c43142e1e02ab645b3a6",
		off:  "7823dc8b663f7744d429a9fd14cfe8ac6b80486c95b05cd73b4af8d59d52b439"},
	{name: "violations-strict", params: core.FigureExample, opts: violatingStart, policy: invariant.Strict,
		core: "23acce7c84558d6daedb2ea04cf775995445d3860deef2a92b07363bb2a514fe",
		on:   "d94d79d13e811e05952260b27fafba615156096b04d7c43142e1e02ab645b3a6",
		off:  "7823dc8b663f7744d429a9fd14cfe8ac6b80486c95b05cd73b4af8d59d52b439"},
	{name: "outside-strip-record", params: core.FigureExample, opts: startAt(1e300, -1e300), policy: invariant.Record,
		core: "80202c4be869153f487f17177af39bde4f57348dd012091ea4db15072cea5fd5",
		on:   "dfadbc1fe387bd8cc643bbc31a47b37dbe58847481369470c0261f950cbeed9e",
		off:  "e7a709c18ce8d5a330e8f893334269742a9cbec4289a7b0c1fe515207a57af06"},
	{name: "inf-rate-record", params: core.FigureExample, opts: startAt(1e307, 1e307), policy: invariant.Record,
		core: "297b775a2498ad41bdd568f238e714542a70a2763cf6360fc68543110d9e24dc",
		on:   "ec95dfac3a6aef65fe5dafdbfffc77f281f0f0c1b996ac219dbc2b74d91ca6f7",
		off:  "9f49f4ff4ab705d06e27250cf186ff7a43976d29ae7a55b197c4abdb86cd3c34"},
	{name: "nonfinite-record", params: core.FigureExample, opts: startAt(-1e308, 1e308), policy: invariant.Record,
		core: "eb4238d65ff266b8210356db959aa854cc97e7d0845a64575c23a1b28cb60926",
		on:   "2f6eebf311a67a659fda826429cdeb484e0acc8903b6d0f012c7c5482c8aa131",
		off:  "2f6eebf311a67a659fda826429cdeb484e0acc8903b6d0f012c7c5482c8aa131"},
	{name: "nonfinite-off", params: core.FigureExample, opts: startAt(-1e308, 1e308),
		core: "85cbcf16a70dcc253ed3071d26dedf4ca942d66df72aa9c34b36dc24c317a6df",
		on:   "2f6eebf311a67a659fda826429cdeb484e0acc8903b6d0f012c7c5482c8aa131",
		off:  "2f6eebf311a67a659fda826429cdeb484e0acc8903b6d0f012c7c5482c8aa131"},
	{name: "invalid-record", params: negativeGd, opts: defaults, policy: invariant.Record,
		core: "18c0f438b003e109d3b2e6f256f8e432d9cd36a34476509d383a9beb252ed94b",
		on:   "7a56eae2261e46e206775f4870bd73969e4df6f4826659a91a58eba40b7d1b7e",
		off:  "7a56eae2261e46e206775f4870bd73969e4df6f4826659a91a58eba40b7d1b7e"},
	{name: "invalid-clamp", params: negativeGd, opts: defaults, policy: invariant.Clamp,
		core: "18c0f438b003e109d3b2e6f256f8e432d9cd36a34476509d383a9beb252ed94b",
		on:   "7a56eae2261e46e206775f4870bd73969e4df6f4826659a91a58eba40b7d1b7e",
		off:  "7a56eae2261e46e206775f4870bd73969e4df6f4826659a91a58eba40b7d1b7e"},
	{name: "invalid-strict", params: negativeGd, opts: defaults, policy: invariant.Strict,
		core: "138f7251cab9534a454e220cfa16f5c3f0954a98bf8bae7ca9aacea5da732e3e",
		on:   "7a56eae2261e46e206775f4870bd73969e4df6f4826659a91a58eba40b7d1b7e",
		off:  "7a56eae2261e46e206775f4870bd73969e4df6f4826659a91a58eba40b7d1b7e"},
	{name: "floor-spiral", params: core.FigureExample, opts: drain(1),
		core: "453cc4f8e3ac3f599f35b53267a0ea8a3896eb387cd65e960df3fe8eb9a01bd0",
		on:   "d2446aded853b0df723dae38cd994930a26509efd94f87c982f9b3df6fca55bb",
		off:  "8447d269d9ec8abe55b06e16d55320ea0e1b1053c47fe1c01ef8b2b641764659"},
	{name: "floor-node", params: figureGains(4, 4), opts: drain(1e7),
		core: "70eb0c5bae23d8e2de527d70a82779f4d0bb90f529134a72799eef9eed172401",
		on:   "b50a00e9c002e1f0147ef0319b7489d3a2af8ead247f065337b410b707b08055",
		off:  "a34888801959fe8ce6783c29626678c1f7946350a3a0c4892a3a88aa819501f0"},
	{name: "floor-critical", params: figureGains(1, 1), opts: drain(1e6),
		core: "caee7691c1ae87650db17f68d61dba5a7abf1bad01b592368f530c4910007b11",
		on:   "d90e50aedd188a10c4a1e695b86f77cae9ab46a0f3db62fced77f29216bc68f3",
		off:  "f0f3746529cefddf8f299a1db782d97fa11a53c53bf27fda5cf0cb52425cdf8b"},
}

func digest(parts ...string) string {
	h := sha256.New()
	for _, s := range parts {
		fmt.Fprintf(h, "%d:%s;", len(s), s)
	}
	return hex.EncodeToString(h.Sum(nil))
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// coreDigest hashes the JSON trajectory (every sample, segment, crossing
// and extremum) plus the error text.
func coreDigest(tr *core.Trajectory, err error) string {
	b, jerr := json.Marshal(tr)
	if jerr != nil {
		b = []byte(fmt.Sprintf("%+v", tr))
	}
	return digest(string(b), errText(err))
}

// resultDigest hashes every Result field; %v prints floats in their
// shortest round-trip form, so equal text means bit-equal values.
func resultDigest(res analytic.Result, err error) string {
	return digest(fmt.Sprintf("%+v", res), errText(err))
}

func analyticOptions(o core.SolveOptions, mode analytic.Mode) analytic.Options {
	return analytic.Options{
		Mode:                mode,
		Start:               o.Start,
		MaxArcs:             o.MaxArcs,
		DisableShortCircuit: o.DisableShortCircuit,
		IgnoreBuffer:        o.IgnoreBuffer,
	}
}

// TestSolveGolden pins the stitched solvers' exact output: any refactor
// of the stitch loop, the arc forms or the observers must leave every
// digest unchanged. Digests are recorded on linux/amd64; other
// architectures may fuse multiply-adds differently, so they skip.
func TestSolveGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden digests are recorded on amd64, not %s", runtime.GOARCH)
	}
	for _, gc := range goldenCases {
		t.Run(gc.name, func(t *testing.T) {
			p := gc.params()
			opts := gc.opts(p)
			opts.Invariants = invariant.NewPolicy(gc.policy)
			tr, err := core.Solve(p, opts)
			if got := coreDigest(tr, err); got != gc.core {
				t.Errorf("core.Solve digest %s, want %s", got, gc.core)
			}
			for _, m := range []struct {
				mode analytic.Mode
				want string
			}{{analytic.ModeOn, gc.on}, {analytic.ModeOff, gc.off}} {
				res, err := analytic.SolveOne(p, analyticOptions(opts, m.mode))
				if got := resultDigest(res, err); got != m.want {
					t.Errorf("analytic %v digest %s, want %s", m.mode, got, m.want)
				}
			}
		})
	}
}

// TestGainGridGolden pins the map.csv bytes of a 16×16 grid spanning all
// outcome classes, under each invariant policy. A
// strict grid aborts at its first violating point, so its case
// evaluates point by point and pins which points abort (and on which
// predicate) beside the clean rows.
func TestGainGridGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden digests are recorded on amd64, not %s", runtime.GOARCH)
	}
	for _, tc := range []struct {
		invariants string
		want       string
	}{
		{"off", "b457e29aedf56cd46285bf6729fec851abfd266da8e8774148aae5db96b8ccf5"},
		{"record", "41f15227d0995233007dc5fa1c2d7b1c494f8570052a7e11916f8669b26d8c6f"},
		{"strict", "d541bc602c025e6b3ade6464f6fd713ca94400cde26acff9592037148b99ab01"},
		{"clamp", "41f15227d0995233007dc5fa1c2d7b1c494f8570052a7e11916f8669b26d8c6f"},
	} {
		g := cluster.GainGrid{
			BOverQ0: 5, GiLo: 0.05, GiHi: 8, GdLo: 0.001, GdHi: 0.4, Steps: 16,
			Invariants: tc.invariants,
		}
		if err := g.Validate(); err != nil {
			t.Fatal(err)
		}
		ctx := context.Background()
		pts := g.Points()
		rows := make([]cluster.Row, len(pts))
		if tc.invariants == "strict" {
			for i, pt := range pts {
				row, err := g.Eval(ctx, pt, cluster.EvalMetrics{})
				if v, ok := invariant.StrictAbort(err); ok {
					row = cluster.Row{CSV: fmt.Sprintf("%g,%g,strict abort: %s", pt.Gi, pt.Gd, v.Predicate)}
				} else if err != nil {
					t.Fatal(err)
				}
				rows[i] = row
			}
		} else if err := g.EvalBatch(ctx, pts, rows, cluster.EvalMetrics{}); err != nil {
			t.Fatal(err)
		}
		if got := digest(string(cluster.RenderCSV(rows))); got != tc.want {
			t.Errorf("invariants=%s: map.csv digest %s, want %s", tc.invariants, got, tc.want)
		}
	}
}

// TestFloorCasesHitFirstArc holds the floor golden cases to what they
// are there to pin: each underflows on its first arc (Arcs counts none
// before the hit), and that arc is of the family the case names.
func TestFloorCasesHitFirstArc(t *testing.T) {
	seen := 0
	for _, gc := range goldenCases {
		kind, ok := floorCases[gc.name]
		if !ok {
			continue
		}
		seen++
		p := gc.params()
		start := gc.opts(p).Start
		lin := p.RegionLinear(p.RegionAt(start[0], start[1]))
		arc, err := core.NewArc(lin.M, lin.N, p.K(), start[0], start[1])
		if err != nil {
			t.Fatal(err)
		}
		res, err := analytic.SolveOne(p, analytic.Options{Start: start})
		if err != nil {
			t.Fatal(err)
		}
		if arc.Kind() != kind || res.Outcome != core.OutcomeUnderflow || res.Arcs != 0 {
			t.Errorf("%s: first arc %v, outcome %v after %d arcs; want a %v arc that underflows", gc.name, arc.Kind(), res.Outcome, res.Arcs, kind)
		}
	}
	if seen != len(floorCases) {
		t.Errorf("found %d of %d floor cases in goldenCases", seen, len(floorCases))
	}
}

// TestWallGridGolden pins map.csv bytes where the buffer wall decides
// the rows: a tight buffer on bcnsweep's default axes and the node and
// critical grid classes of perfbench's sweep-local workload. Every
// overflow row's max_q_bits is the wall itself, so these digests move
// only when a verdict, a non-wall row or the wall's value does. walls
// is the number of overflow rows each grid must keep.
func TestWallGridGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden digests are recorded on amd64, not %s", runtime.GOARCH)
	}
	giCrit, gdCrit := criticalGains()
	for _, tc := range []struct {
		name  string
		grid  cluster.GainGrid
		walls int
		want  string
	}{
		{"b1.5", cluster.GainGrid{BOverQ0: 1.5, GiLo: 0.05, GiHi: 12.8, GdLo: 1.0 / 1024, GdHi: 0.5, Steps: 16}, 159,
			"4362b71adb4f3fb0a32ff408118696ab895f5c436fa020f11b216a32be836018"},
		{"node", cluster.GainGrid{BOverQ0: 3, GiLo: 0.05, GiHi: 5.6 * giCrit, GdLo: 1.0 / 1024, GdHi: 5.6 * gdCrit, Steps: 16}, 116,
			"5ee0e7ca1489ca7e6799709b4c7848cbcda7e5f13786781e05de7b114651a91f"},
		{"critical-gi", cluster.GainGrid{BOverQ0: 2, GiLo: giCrit, GiHi: 8 * giCrit, GdLo: 1.0 / 1024, GdHi: 0.5, Steps: 16}, 256,
			"932c8fa42b2df58215d69a2b78f7bfa30540c645ee18c28bb3c807b9c510b2fc"},
		{"critical-gd", cluster.GainGrid{BOverQ0: 1.5, GiLo: 0.05, GiHi: 12.8, GdLo: gdCrit, GdHi: 8 * gdCrit, Steps: 16}, 0,
			"ce50cf502644530da4ab27f3b5809cfaecdfbdbc01ee298397d555e87228785e"},
	} {
		pts := tc.grid.Points()
		rows := make([]cluster.Row, len(pts))
		if err := tc.grid.EvalBatch(context.Background(), pts, rows, cluster.EvalMetrics{}); err != nil {
			t.Fatal(err)
		}
		walls := 0
		for _, r := range rows {
			if strings.Contains(r.CSV, ",overflow,") {
				walls++
			}
		}
		if walls != tc.walls {
			t.Errorf("%s: %d overflow rows, want %d", tc.name, walls, tc.walls)
		}
		if got := digest(string(cluster.RenderCSV(rows))); got != tc.want {
			t.Errorf("%s: map.csv digest %s, want %s", tc.name, got, tc.want)
		}
	}
}

// maskWallCells returns map.csv with max_q_bits (column 9) replaced by
// "wall" on every overflow and underflow row, and those rows' cells.
// Everything a wall hit cannot move keeps its bytes.
func maskWallCells(csv []byte) (string, []string) {
	lines := strings.Split(string(csv), "\n")
	var cells []string
	for i, line := range lines[1:] {
		f := strings.Split(line, ",")
		if len(f) < 9 || f[6] != "overflow" && f[6] != "underflow" {
			continue
		}
		cells = append(cells, f[8])
		f[8] = "wall"
		lines[i+1] = strings.Join(f, ",")
	}
	return strings.Join(lines, "\n"), cells
}

// TestWallMaskedGridGolden pins map.csv of three wall-heavy grids on
// bcnsweep's default axes, under the off and record policies, with the
// wall cells masked: every verdict column and every non-wall row. The
// masked cells are checked apart: a wall hit stops the trajectory on
// the wall, so an overflow row's max_q_bits is q0 + (B − q0) exactly.
// (An underflow row's would be its peak before the floor; these grids
// have none.)
func TestWallMaskedGridGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden digests are recorded on amd64, not %s", runtime.GOARCH)
	}
	axes := func(bOverQ0, gdLo float64, steps int, inv string) cluster.GainGrid {
		return cluster.GainGrid{BOverQ0: bOverQ0, GiLo: 0.05, GiHi: 12.8, GdLo: gdLo, GdHi: 0.5, Steps: steps, Invariants: inv}
	}
	for _, tc := range []struct {
		name  string
		grid  cluster.GainGrid
		walls int
		want  string
	}{
		{"steps128/off", axes(5, 1.0/1024, 128, "off"), 1599,
			"80581b66316b991566e54cfc0659fb3fb4af91efa69bab990c0866c708faa5f2"},
		{"steps128/record", axes(5, 1.0/1024, 128, "record"), 1599,
			"313ad826cfca52af946e1c1c0dce6b1f47e67203e1d3623028a0a5fbd96fbf38"},
		{"b2/off", axes(2, 1.0/1024, 96, "off"), 3813,
			"e5ab46b9060373e0603a09b41c3abeb8272a95319bf7c7e3afea04ed16f29899"},
		{"b2/record", axes(2, 1.0/1024, 96, "record"), 3813,
			"240f1c775742fe28cc61a4ad9a392a821676905b969ab957d9239d631f52c46b"},
		{"b1.5-gd1e-4/off", axes(1.5, 0.0001, 64, "off"), 2976,
			"1173da2403c408893bd39fa1326c2c9ed5000749fcd96a4a0d97e634810f1a01"},
		{"b1.5-gd1e-4/record", axes(1.5, 0.0001, 64, "record"), 2976,
			"1b561fd3ffd4f03251881040aeb66ba6331b6bcc18f19d0626dd44056f39a426"},
	} {
		pts := tc.grid.Points()
		rows := make([]cluster.Row, len(pts))
		if err := tc.grid.EvalBatch(context.Background(), pts, rows, cluster.EvalMetrics{}); err != nil {
			t.Fatal(err)
		}
		masked, cells := maskWallCells(cluster.RenderCSV(rows))
		if len(cells) != tc.walls {
			t.Errorf("%s: %d wall rows, want %d", tc.name, len(cells), tc.walls)
		}
		if got := digest(masked); got != tc.want {
			t.Errorf("%s: masked map.csv digest %s, want %s", tc.name, got, tc.want)
		}
		p := tc.grid.Base()
		for _, c := range cells {
			if q, err := strconv.ParseFloat(c, 64); err != nil || q != p.Q0+(p.B-p.Q0) {
				t.Errorf("%s: wall row max_q_bits %s, want q0 + (B − q0) = %v", tc.name, c, p.Q0+(p.B-p.Q0))
				break
			}
		}
	}
}
