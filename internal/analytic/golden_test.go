package analytic_test

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"runtime"
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

var goldenCases = []goldenCase{
	{name: "paper", params: core.PaperExample, opts: defaults,
		core: "4dcbabe17436926cefc4bbea56c93316dd187d588b41efa2ecfad5776d4b8835",
		on:   "70f7410f3ea6003f7d08cb09bb245bed68f23e6333f9cd9e3f5159755b981698",
		off:  "1ccee097e34b1048d451f40e691b15dae344bd70619a1f036db57b24c16157ca"},
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
		core: "820e0ec5afc902b2a2ead572a0de2030bcc8a8fa999116c2fd1eb1326630001e",
		on:   "d00f93d3e2188825bc26d1fdb19a90dc61b56db3d36fd62a075c99286a4891cc",
		off:  "67110e01224a4dc1e0c37108e036209edae55b490630734461d323d995ca48a1"},
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
		core: "2f58491c55d5a2e5cd287e261596bd53e120c339ba3559efc8909bfcfb34f241",
		on:   "1e53fa2e5427a44df6afc424696aff40908bff4e5161b9fad65f68a8e2ac2d30",
		off:  "efbccafb80d7b94979c6d419f9c5707c1358ce15d99ff788607823c07cc8d49d"},
	{name: "violations-clamp", params: core.FigureExample, opts: violatingStart, policy: invariant.Clamp,
		core: "d2e29632f663bef2da9a585074b2219907c3864b1c8aa782bc531bf1a324bea0",
		on:   "1e53fa2e5427a44df6afc424696aff40908bff4e5161b9fad65f68a8e2ac2d30",
		off:  "efbccafb80d7b94979c6d419f9c5707c1358ce15d99ff788607823c07cc8d49d"},
	{name: "violations-strict", params: core.FigureExample, opts: violatingStart, policy: invariant.Strict,
		core: "23acce7c84558d6daedb2ea04cf775995445d3860deef2a92b07363bb2a514fe",
		on:   "1e53fa2e5427a44df6afc424696aff40908bff4e5161b9fad65f68a8e2ac2d30",
		off:  "efbccafb80d7b94979c6d419f9c5707c1358ce15d99ff788607823c07cc8d49d"},
	{name: "outside-strip-record", params: core.FigureExample, opts: startAt(1e300, -1e300), policy: invariant.Record,
		core: "46790cdd5ce3d8d7d87c639b375506ec7600d556c2c82febc7c803284ed75051",
		on:   "ec6825ef26de50f592fcd41722efc05c705d33b65cf0780bc743fb7e4e2d5478",
		off:  "7da7d1cf60daaaac188cfe6f3761c4cb9eb67ee7918f6d227db5a0afffc508d8"},
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
		ConvergeTol:         o.ConvergeTol,
		CycleTol:            o.CycleTol,
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
				res, err := analytic.NewSolver().Solve(p, analyticOptions(opts, m.mode))
				if got := resultDigest(res, err); got != m.want {
					t.Errorf("analytic %v digest %s, want %s", m.mode, got, m.want)
				}
			}
		})
	}
}

// TestGainGridGolden pins the map.csv bytes of a 16×16 grid spanning all
// outcome classes, under each engine mode and each invariant policy. A
// strict grid aborts at its first violating point, so its case
// evaluates point by point and pins which points abort (and on which
// predicate) beside the clean rows.
func TestGainGridGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden digests are recorded on amd64, not %s", runtime.GOARCH)
	}
	for _, tc := range []struct {
		analytic, invariants string
		want                 string
	}{
		{"on", "off", "20c6ed5946fa47d9a8c3554d9b5e33e7547e0013dae723b100d9fca03e5da0db"},
		{"off", "off", "135149200c21cd5c3e5668652ffde25f2c6cd307686f3bb14c0bbd993b5820a1"},
		{"on", "record", "0598c6d8b470de65636889afad1fbcaaa8a4356a0a1549a05780ec9c4495b5b0"},
		{"on", "strict", "475d9e131da85cbe98d584e1d41507312d9019578c9bee3696c6eab7ce3d318d"},
		{"on", "clamp", "0598c6d8b470de65636889afad1fbcaaa8a4356a0a1549a05780ec9c4495b5b0"},
	} {
		g := cluster.GainGrid{
			BOverQ0: 5, GiLo: 0.05, GiHi: 8, GdLo: 0.001, GdHi: 0.4, Steps: 16,
			Analytic: tc.analytic, Invariants: tc.invariants,
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
			t.Errorf("analytic=%s invariants=%s: map.csv digest %s, want %s", tc.analytic, tc.invariants, got, tc.want)
		}
	}
}
