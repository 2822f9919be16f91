package cluster

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"

	"bcnphase/internal/canonjson"
)

// ErrWire wraps every coordinator wire-message validation failure;
// handlers map it to HTTP 400.
var ErrWire = errors.New("cluster: invalid wire message")

// MaxShardPoints caps the points one shard assignment may carry.
const MaxShardPoints = 512

// MaxWireBytes bounds any single coordinator wire message.
const MaxWireBytes = 4 << 20

// ShardSpec is one shard assignment: the coordinator → worker payload,
// carried as the "shard" body of an ordinary bcnd job spec, so a worker
// needs no cluster-specific endpoint — admission control, supervision
// and journal dedup all apply unchanged. Grid travels whole (not just
// the base parameters) so the shard's dedup key pins the full sweep
// identity, and Index makes two different chunks of the same grid
// distinct artifacts.
type ShardSpec struct {
	Grid   GainGrid    `json:"grid"`
	Index  int         `json:"index"`
	Points []GainPoint `json:"points"`
}

// Validate checks a shard assignment's feasibility.
func (s *ShardSpec) Validate() error {
	fail := func(format string, args ...any) error {
		return fmt.Errorf("%w: shard: %s", ErrWire, fmt.Sprintf(format, args...))
	}
	if err := s.Grid.Validate(); err != nil {
		return fmt.Errorf("%w: shard: %v", ErrWire, err)
	}
	if s.Grid.Steps > MaxClusterSteps {
		return fail("grid steps=%d exceeds cluster cap %d", s.Grid.Steps, MaxClusterSteps)
	}
	if s.Index < 0 {
		return fail("index=%d must be non-negative", s.Index)
	}
	if len(s.Points) == 0 || len(s.Points) > MaxShardPoints {
		return fail("%d points, want 1..%d", len(s.Points), MaxShardPoints)
	}
	for i, pt := range s.Points {
		for _, v := range []float64{pt.Gi, pt.Gd} {
			if math.IsNaN(v) || math.IsInf(v, 0) || v <= 0 {
				return fail("point %d gain %v must be positive and finite", i, v)
			}
		}
	}
	return nil
}

// ShardResult is the worker → coordinator result envelope: one Row per
// assigned point, in assignment order, plus the integrity envelope the
// worker signs over them (digest.go). The integrity fields live only on
// the wire — journal point records stay plain Rows, so coordinator
// journals remain interchangeable with cmd/bcnsweep -resume journals.
//
// A result DecodeShardArtifact reads in canonical form shares backing
// storage: every Row.CSV, Row.FirstPred and RowSums entry is a
// substring of one copy of the artifact, so keeping any of them keeps
// the whole artifact's text alive.
type ShardResult struct {
	Index int   `json:"index"`
	Rows  []Row `json:"rows"`
	// RowSums[i] is RowSum(Rows[i]), computed by the evaluating worker.
	RowSums []string `json:"row_sums,omitempty"`
	// Digest is ShardDigest(Index, RowSums).
	Digest string `json:"digest,omitempty"`

	// records[i] is Rows[i]'s journal record, the JSON verification
	// hashed; set only on a result that passed verifyShard.
	records [][]byte
}

// Shard is one planned unit of distribution: a grid-order chunk of
// points with their global grid indices and journal keys.
type Shard struct {
	Index  int
	Points []GainPoint
	// GridIdx[i] is Points[i]'s position in the full grid enumeration.
	GridIdx []int
	// Keys[i] is Points[i]'s journal key.
	Keys []string
}

// DoneKey is the journal key of a shard's completion marker: the record
// the coordinator appends after every row of the shard is durable. A
// shard with rows but no done marker is an orphan — a worker or
// coordinator died mid-shard — and must be re-executed, not trusted.
func DoneKey(fingerprint string, index int) string {
	return fmt.Sprintf("shard-done:%s:%d", fingerprint, index)
}

// doneMarker is the done record's JSON value. Points is the planned
// shard's point count, so the value depends only on the key and the
// shard size.
type doneMarker struct {
	Index  int `json:"index"`
	Points int `json:"points"`
}

// PlanShards enumerates the grid and chunks it into shards of at most
// size points, in grid order. The plan depends only on the grid and the
// shard size — never on the worker set — so shard composition (and with
// it every done-marker key) is stable across restarts and worker churn.
func PlanShards(grid GainGrid, size int) (fingerprint string, points []GainPoint, shards []Shard, err error) {
	if err := grid.Validate(); err != nil {
		return "", nil, nil, err
	}
	if size <= 0 {
		size = DefaultShardSize
	}
	if size > MaxShardPoints {
		size = MaxShardPoints
	}
	fingerprint, err = grid.Fingerprint()
	if err != nil {
		return "", nil, nil, err
	}
	points = grid.Points()
	// One backing array each for the grid indices and keys of every
	// shard; each shard gets a capped window of them.
	gridIdx := make([]int, len(points))
	keys := make([]string, len(points))
	for i, pt := range points {
		gridIdx[i] = i
		keys[i] = PointKey(fingerprint, pt)
	}
	shards = make([]Shard, 0, (len(points)+size-1)/size)
	for lo := 0; lo < len(points); lo += size {
		hi := min(lo+size, len(points))
		shards = append(shards, Shard{
			Index:   len(shards),
			Points:  points[lo:hi:hi],
			GridIdx: gridIdx[lo:hi:hi],
			Keys:    keys[lo:hi:hi],
		})
	}
	return fingerprint, points, shards, nil
}

// DecodeSweepRequest reads one grid submission from r (POST /v1/sweeps),
// rejecting unknown fields, anything but whitespace after the grid,
// oversized bodies and anything that fails validation or exceeds the
// cluster resolution cap. It never panics on arbitrary input (fuzzed in
// fuzz_test.go); every failure wraps ErrWire, and a body past maxBytes
// also wraps *http.MaxBytesError, which the handler maps to 413.
func DecodeSweepRequest(r io.Reader, maxBytes int64) (GainGrid, error) {
	if maxBytes <= 0 {
		maxBytes = MaxWireBytes
	}
	buf := canonjson.Borrow()
	defer canonjson.Return(buf)
	body, err := canonjson.ReadBody(buf, r, maxBytes)
	if err != nil {
		return GainGrid{}, fmt.Errorf("%w: %w", ErrWire, err)
	}
	var g GainGrid
	if err := canonjson.DecodeStrict(body, &g); err != nil {
		return GainGrid{}, fmt.Errorf("%w: %w", ErrWire, err)
	}
	if err := g.Validate(); err != nil {
		return GainGrid{}, fmt.Errorf("%w: %v", ErrWire, err)
	}
	if g.Steps > MaxClusterSteps {
		return GainGrid{}, fmt.Errorf("%w: grid steps=%d exceeds cluster cap %d", ErrWire, g.Steps, MaxClusterSteps)
	}
	return g, nil
}

// jobEnvelope is the bcnd job spec the coordinator posts to a worker's
// /v1/jobs. It mirrors serve.Spec's JSON shape for the shard kind;
// keeping a local copy here (instead of importing internal/serve) keeps
// the dependency arrow pointing serve → cluster.
type jobEnvelope struct {
	Kind      string     `json:"kind"`
	TimeoutMs int64      `json:"timeout_ms,omitempty"`
	Shard     *ShardSpec `json:"shard"`
}

// EncodeShardJob renders the bcnd job spec submitting sh as a shard job
// with the given wall-clock budget: json.Marshal's bytes for the
// jobEnvelope, appended by the canonical codec.
func EncodeShardJob(sh *ShardSpec, timeoutMs int64) ([]byte, error) {
	n := 64
	if sh != nil {
		n += shardSpecLen(sh)
	}
	b := append(make([]byte, 0, n), `{"kind":"shard"`...)
	if timeoutMs != 0 {
		b = strconv.AppendInt(append(b, `,"timeout_ms":`...), timeoutMs, 10)
	}
	b = append(b, `,"shard":`...)
	ok := true
	if sh == nil {
		b = append(b, "null"...)
	} else {
		b, ok = AppendShardSpec(b, sh)
	}
	if !ok {
		// A gain with no JSON spelling: encoding/json names the failure.
		_, err := json.Marshal(jobEnvelope{Kind: "shard", TimeoutMs: timeoutMs, Shard: sh})
		return nil, fmt.Errorf("cluster: encode shard job: %w", err)
	}
	return append(b, '}'), nil
}

// shardArtifact is the coordinator's view of a worker's artifact JSON.
// Decoding is deliberately lenient about extra fields — the serving
// layer may grow its artifact envelope — but strict about the parts the
// merge depends on.
type shardArtifact struct {
	Key   string       `json:"key"`
	Kind  string       `json:"kind"`
	Shard *ShardResult `json:"shard"`
}

// DecodeShardArtifact parses a worker's job artifact into its
// ShardResult, validating it against the assignment it answers: same
// shard index, exactly one Row per assigned point, every row non-empty.
// It never panics on arbitrary input (fuzzed in fuzz_test.go). The
// canonical artifact a worker serves is read by the row codec
// (rowcodec.go); anything else goes through encoding/json, with the
// same verdicts either way.
func DecodeShardArtifact(raw []byte, want *ShardSpec) (ShardResult, error) {
	if int64(len(raw)) > MaxWireBytes {
		return ShardResult{}, fmt.Errorf("%w: artifact of %d bytes exceeds cap", ErrWire, len(raw))
	}
	n := 0
	if want != nil {
		n = len(want.Points)
	}
	art, err := decodeArtifact(raw, n)
	if err != nil {
		return ShardResult{}, fmt.Errorf("%w: %v", ErrWire, err)
	}
	if art.Kind != "shard" || art.Shard == nil {
		return ShardResult{}, fmt.Errorf("%w: artifact kind %q is not a shard result", ErrWire, art.Kind)
	}
	res := *art.Shard
	if want != nil {
		if res.Index != want.Index {
			return ShardResult{}, fmt.Errorf("%w: shard result index %d answers assignment %d", ErrWire, res.Index, want.Index)
		}
		if len(res.Rows) != len(want.Points) {
			return ShardResult{}, fmt.Errorf("%w: shard result has %d rows for %d assigned points", ErrWire, len(res.Rows), len(want.Points))
		}
	}
	for i := range res.Rows {
		if res.Rows[i].CSV == "" {
			return ShardResult{}, fmt.Errorf("%w: shard result row %d is empty", ErrWire, i)
		}
	}
	return res, nil
}

// WorkerStatus is the heartbeat envelope: the slice of a worker's
// /statusz the coordinator acts on. Unknown fields are ignored (the
// serving layer adds fields over time); what is present must be typed
// correctly.
type WorkerStatus struct {
	Draining    bool    `json:"draining"`
	Workers     int     `json:"workers"`
	Queued      int     `json:"queued"`
	InFlight    int     `json:"in_flight"`
	ActiveJobs  int     `json:"active_jobs"`
	Utilization float64 `json:"utilization"`
}

// DecodeWorkerStatus parses one heartbeat response. It never panics on
// arbitrary input (fuzzed in fuzz_test.go).
func DecodeWorkerStatus(raw []byte) (WorkerStatus, error) {
	if int64(len(raw)) > MaxWireBytes {
		return WorkerStatus{}, fmt.Errorf("%w: status of %d bytes exceeds cap", ErrWire, len(raw))
	}
	var st WorkerStatus
	dec := json.NewDecoder(bytes.NewReader(raw))
	if err := dec.Decode(&st); err != nil {
		return WorkerStatus{}, fmt.Errorf("%w: %v", ErrWire, err)
	}
	if st.Workers < 0 || st.Queued < 0 || st.InFlight < 0 {
		return WorkerStatus{}, fmt.Errorf("%w: negative occupancy in worker status", ErrWire)
	}
	return st, nil
}
