package netsim_test

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"runtime"
	"testing"

	"bcnphase/internal/core"
	"bcnphase/internal/faults"
	"bcnphase/internal/netsim"
	"bcnphase/internal/workload"
)

// goldenBase is a small 10-source, 1 Gbps dumbbell under persistent 2×
// overload: busy enough that every control and fault path fires within
// a few milliseconds of simulated time.
func goldenBase() netsim.Config {
	return netsim.Config{
		N:           10,
		Capacity:    1e9,
		LineRate:    1e9,
		FrameBits:   12000,
		BufferBits:  2e6,
		PropDelay:   netsim.FromSeconds(1e-6),
		InitialRate: 2e8,
		BCN:         true,
		Q0:          5e5,
		W:           2,
		Pm:          0.2,
		Ru:          8e6,
		Gi:          4,
		Gd:          1.0 / 128,
		Seed:        7,
	}
}

// paperDumbbell is the paper's Theorem 1 example as a dumbbell: N=50
// sources on 10 Gbps, buffer 1.05× the Theorem 1 bound, sources starting
// at twice their fair share.
func paperDumbbell(t *testing.T) netsim.Config {
	p := core.PaperExample()
	p.B = core.Theorem1Bound(p) * 1.05
	cfg, err := workload.FromParams(p, 2)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Seed = 7
	return cfg
}

type goldenCase struct {
	name   string
	cfg    func(t *testing.T) netsim.Config
	dur    float64
	result string // sha-256 of the JSON Result plus the run error text
	trace  string // sha-256 of the Config.Trace bytes
}

func withFaults(fc faults.Config) func(*testing.T) netsim.Config {
	return func(*testing.T) netsim.Config {
		cfg := goldenBase()
		fc.Seed = 5
		cfg.Faults = &fc
		return cfg
	}
}

func withScheme(s netsim.Scheme) func(*testing.T) netsim.Config {
	return func(*testing.T) netsim.Config {
		cfg := goldenBase()
		cfg.Scheme = s
		cfg.BufferBits = 4e6
		if s == netsim.SchemeE2CM {
			cfg.MinRate = cfg.Capacity / (8 * float64(cfg.N))
		}
		return cfg
	}
}

// goldenCases is the scenario matrix whose digests pin the simulator's
// exact behaviour: the event order, every Result field and every trace
// byte. A refactor or optimization of the engine must leave every digest
// unchanged; only an intended change to the simulated system may
// re-record them.
var goldenCases = []goldenCase{
	{
		name:   "paper-dumbbell",
		cfg:    paperDumbbell,
		dur:    0.03,
		result: "692b3840925bbbc1479db976016ee1ff0b77e445c9c865976f33e0bb3125d533",
		trace:  "ccb5404bb4c249c6c1b8d3fd23a928a82bf57e7b764a7a1c8fe96932bf8d6fe6",
	},
	{
		name: "incast16",
		cfg: func(t *testing.T) netsim.Config {
			cfg, err := workload.Incast(16, 10e9, 2e6, 0.5e-3)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Seed = 7
			return cfg
		},
		dur:    0.02,
		result: "ff6a56f8fd9fd8da1bfe33eb43fb202bc42c64a1659152b9fd543c343145ac34",
		trace:  "2b49e1508db359fd5fe4028a66dff13b14c519013f44aa0e7aa032d320db7ca1",
	},
	{
		name:   "qcn",
		cfg:    withScheme(netsim.SchemeQCN),
		dur:    0.01,
		result: "fec03e0437041c6e7e6e7aa3f864b77dd1304b6a71ae4e55ba83a96020b47d29",
		trace:  "2435290ca722fd505b6cec9965432ac55247ce1ad13c86c0f5cd83c83997e91c",
	},
	{
		name:   "fera",
		cfg:    withScheme(netsim.SchemeFERA),
		dur:    0.01,
		result: "5c5c2a8b8c93df8136b784f597a37e0d703e01a7f397457dd371386716c99f5d",
		trace:  "db50792b2f25f9055f180824e201bbc1a98576f832b9d6a998b1cbd48f8e1a74",
	},
	{
		name:   "e2cm",
		cfg:    withScheme(netsim.SchemeE2CM),
		dur:    0.01,
		result: "52df6d752379b2212085ba4a582c2f532588a2cd573815820340ed8efa88ec20",
		trace:  "34c78d8fc5d8f025b13b44738b5d77ac14930b47a4c311477e6f27b06aee838f",
	},
	{
		name: "bcn+pause",
		cfg: func(*testing.T) netsim.Config {
			cfg := goldenBase()
			cfg.Pause = true
			cfg.Qsc = 1.2e6
			cfg.PauseDuration = netsim.FromSeconds(50e-6)
			cfg.BufferBits = 1.5e6
			cfg.Q0 = 1e6
			return cfg
		},
		dur:    0.01,
		result: "a0aea7ad89acc0d68eb393455a331217dc7bb302da65f0bc907bed82e004b3bd",
		trace:  "26e2875051ef4dfabc313956219413e82ca69b124dab58b4986cc88562210d6b",
	},
	{
		name: "pause-only",
		cfg: func(*testing.T) netsim.Config {
			cfg := goldenBase()
			cfg.BCN = false
			cfg.Pause = true
			cfg.Qsc = 1.2e6
			cfg.PauseDuration = netsim.FromSeconds(50e-6)
			return cfg
		},
		dur:    0.01,
		result: "35514093b6b42807e3772f52768db8b321c8bd2daebfc19d2ce414e6160c412c",
		trace:  "fc7465c44380ec4d27526319e6eba9fa935355c12e226c2de7de2dca47a70d98",
	},
	{
		name:   "fault-feedback-loss",
		cfg:    withFaults(faults.Config{FeedbackLoss: 0.3}),
		dur:    0.01,
		result: "f1fb0b5630dd8d5d7e3f24c07b03277f0a093c342de244ebdfab1b7a8b925620",
		trace:  "be7d1cb82926d05bba526e70ee6ed99400e1b599c7bb4fc58b56f6b60dc99515",
	},
	{
		name:   "fault-jitter-reorder",
		cfg:    withFaults(faults.Config{FeedbackJitterNs: 20_000, FeedbackReorder: 0.2}),
		dur:    0.01,
		result: "e669902a239cceb4907d880dff83604431b1db7ba9279bb19a34be29dde1190f",
		trace:  "acbcfee1012622efc9866d35e29fa375ace45e16f55159feefbd766c6e312ef4",
	},
	{
		name:   "fault-corruption",
		cfg:    withFaults(faults.Config{FeedbackCorrupt: 0.5}),
		dur:    0.02,
		result: "574187f78430a04df6614affbe8df47c0f868991b6b3be9faadf920cb3c876a3",
		trace:  "d7dc37cf34b463338a2bd13e1e69aae30475857fa483812b956ff861b6bee985",
	},
	{
		name:   "fault-data-loss",
		cfg:    withFaults(faults.Config{DataLoss: 0.05}),
		dur:    0.01,
		result: "6474e594996e690910f6f8ee7ce68399a482da7200a36b05db447dbbc8327ab9",
		trace:  "f5289a6fa018c1ac5fc33941f1b83761158a6c9810d702db9d5d70547ad8e62f",
	},
	{
		name:   "fault-capacity-flap",
		cfg:    withFaults(faults.Config{FlapPeriodNs: 2_000_000, FlapDownNs: 1_000_000, FlapFactor: 0.3}),
		dur:    0.01,
		result: "c56b0c854a6cc87bf547c1416415e8a6f04535f41e416c571274b7d017b95f42",
		trace:  "12b95ee3ff8278b5704eb047b23ea7fba5d39ebd45dc51c59256515365c32db1",
	},
	{
		name:   "fault-sampling-blackout",
		cfg:    withFaults(faults.Config{BlackoutPeriodNs: 1_000_000, BlackoutDurNs: 500_000}),
		dur:    0.01,
		result: "2c6960da3696dc330244821b524770ed5107e752ae821bb9c2a64cd616f92581",
		trace:  "7cd33566c17e37d8197de3dd66939d578d7d8606ef1187fc30f1d591621daea0",
	},
	{
		name: "max-events-partial",
		cfg: func(*testing.T) netsim.Config {
			cfg := goldenBase()
			cfg.MaxEvents = 5000
			return cfg
		},
		dur:    1,
		result: "69fb8f5b239570c695c8738d6fbf81a7e991870dec2b16f306e1b47c5fa7829d",
		trace:  "b249c2c382e3ecebd2a46ffb9861722142a5d12ebc2ba81877224675c431f230",
	},
}

type goldenMultihopCase struct {
	name   string
	cfg    func() netsim.MultihopConfig
	result string
}

func goldenMultihopBase() netsim.MultihopConfig {
	return netsim.MultihopConfig{
		HotSources: 4,
		HotRate:    4e8,
		VictimRate: 2e8,
		LineRate:   1e9,
		LinkEX:     2e9,
		PortA:      1e9,
		PortB:      1e9,
		FrameBits:  12000,
		BufEdge:    1e6,
		BufA:       2e6,
		PropDelay:  netsim.FromSeconds(1e-6),
	}
}

var goldenMultihopCases = []goldenMultihopCase{
	{
		name: "multihop-pause",
		cfg: func() netsim.MultihopConfig {
			cfg := goldenMultihopBase()
			cfg.Pause = true
			cfg.PauseDuration = netsim.FromSeconds(50e-6)
			return cfg
		},
		result: "91a4a3c1c5738fb0b777f28160385e848cda0846451049f8dcb78a6f66943954",
	},
	{
		name: "multihop-bcn",
		cfg: func() netsim.MultihopConfig {
			cfg := goldenMultihopBase()
			cfg.BCN = true
			cfg.Q0 = 4e5
			cfg.W = 2
			cfg.Pm = 0.2
			cfg.Ru, cfg.Gi, cfg.Gd = 8e6, 0.05, 1.0/128
			return cfg
		},
		result: "67e36c84152697d8de965443e6501f4b85df521be8bcc15fc6b33c199638bb62",
	},
}

// digest hashes the JSON encoding of v followed by the error text.
func digest(t *testing.T, v any, err error) string {
	t.Helper()
	b, jerr := json.Marshal(v)
	if jerr != nil {
		t.Fatalf("marshal: %v", jerr)
	}
	h := sha256.New()
	h.Write(b)
	if err != nil {
		h.Write([]byte(err.Error()))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// pinned reports whether the recorded digests apply on this
// architecture: Go may fuse multiply-adds on arm64, ppc64 and s390x,
// which legitimately changes float results there, so elsewhere the test
// only checks that tracing is passive.
func pinned() bool { return runtime.GOARCH == "amd64" }

// TestResultGolden pins the sha-256 of each scenario's JSON Result and of
// its Config.Trace bytes, so a rewrite of the event core that reorders a
// single event or perturbs a single float fails here.
func TestResultGolden(t *testing.T) {
	for _, c := range goldenCases {
		t.Run(c.name, func(t *testing.T) {
			cfg := c.cfg(t)
			res, runErr := runGolden(t, cfg, c.dur)
			got := digest(t, res, runErr)

			tr := sha256.New()
			cfg.Trace = tr
			tres, terr := runGolden(t, cfg, c.dur)
			if tgot := digest(t, tres, terr); tgot != got {
				t.Errorf("tracing changed the result: %s vs %s", tgot, got)
			}
			gotTrace := hex.EncodeToString(tr.Sum(nil))
			if !pinned() {
				return
			}
			if got != c.result {
				t.Errorf("result digest = %s, want %s", got, c.result)
			}
			if gotTrace != c.trace {
				t.Errorf("trace digest = %s, want %s", gotTrace, c.trace)
			}
		})
	}
	for _, c := range goldenMultihopCases {
		t.Run(c.name, func(t *testing.T) {
			n, err := netsim.NewMultihop(c.cfg())
			if err != nil {
				t.Fatal(err)
			}
			res, runErr := n.Run(0.01)
			if runErr != nil {
				t.Fatal(runErr)
			}
			if got := digest(t, res, nil); pinned() && got != c.result {
				t.Errorf("result digest = %s, want %s", got, c.result)
			}
		})
	}
}

func runGolden(t *testing.T, cfg netsim.Config, dur float64) (*netsim.Result, error) {
	t.Helper()
	n, err := netsim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := n.Run(dur)
	if res == nil {
		t.Fatalf("no result: %v", err)
	}
	return res, err
}
