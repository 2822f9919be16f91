package cluster

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"time"
)

// Wire vocabulary of the coordinator high-availability protocol (see
// DESIGN.md §5i). Three parties speak it:
//
//   - candidates/leaders POST /v1/lease to every worker (the witnesses)
//     to win or renew a term lease;
//   - workers reject shard dispatches whose Bcn-Term header is below
//     the highest term their witness has granted (fencing);
//   - standby replicas tail the leader's journal over
//     GET /v1/journal?cursor=gen:off: the body is the leader's own
//     journal lines past the cursor, as its file holds them; Bcn-Term
//     and Bcn-Cursor carry its term and the cursor past those lines,
//     and the status is 206 while synced lines remain past it, 200
//     once they reach the leader's end.
const (
	// TermHeader stamps a shard dispatch with the sending leader's term,
	// and rides back on fencing rejections carrying the term that won.
	TermHeader = "Bcn-Term"
	// CursorHeader carries the journal cursor past a tail response's
	// lines, the cursor of the follower's next round.
	CursorHeader = "Bcn-Cursor"
	// NotLeaderHeader accompanies a 421 from a standby replica, hinting
	// at the last known leader URL (may be empty when none is known).
	NotLeaderHeader = "Bcn-Not-Leader"
	// StaleTermReason is the errorBody reason of a fenced dispatch.
	StaleTermReason = "stale-term"
	// NotLeaderReason is the clusterError reason of a 421 redirect.
	NotLeaderReason = "not-leader"
)

// ErrStaleTerm marks a dispatch fenced by a worker that has witnessed a
// higher leadership term: the sending coordinator is deposed.
var ErrStaleTerm = errors.New("cluster: dispatch fenced by a higher term")

// ErrLeaseLost marks a merge refused because the coordinator's
// leadership lease lapsed while the shard was in flight.
var ErrLeaseLost = errors.New("cluster: leadership lease lost")

// Lease TTL bounds accepted by a witness: below the floor a lease
// could expire inside one network round trip; above the ceiling a dead
// leader would block the fleet for minutes.
const (
	MinLeaseTTL = 50 * time.Millisecond
	MaxLeaseTTL = 5 * time.Minute
)

// LeaseRequest asks one witness for (or renews) a term lease.
type LeaseRequest struct {
	// Candidate is the advertised base URL of the requesting replica —
	// its stable identity across the fleet and the redirect target
	// standbys hand to clients.
	Candidate string `json:"candidate"`
	// Term is the term number being requested. Witnesses grant
	// monotonically: a new holder needs a term strictly above the
	// highest granted; the incumbent renews at its own term.
	Term uint64 `json:"term"`
	// TTLMs is the lease duration in milliseconds.
	TTLMs int64 `json:"ttl_ms"`
}

// Validate bounds-checks one lease request.
func (r *LeaseRequest) Validate() error {
	if r.Candidate == "" {
		return fmt.Errorf("cluster: lease request without candidate")
	}
	if len(r.Candidate) > 512 {
		return fmt.Errorf("cluster: candidate URL exceeds 512 bytes")
	}
	if r.Term == 0 {
		return fmt.Errorf("cluster: lease term must be positive")
	}
	ttl := time.Duration(r.TTLMs) * time.Millisecond
	if ttl < MinLeaseTTL || ttl > MaxLeaseTTL {
		return fmt.Errorf("cluster: lease ttl %s outside [%s, %s]", ttl, MinLeaseTTL, MaxLeaseTTL)
	}
	return nil
}

// LeaseResponse is one witness's verdict. On a denial, Term and Holder
// tell the candidate what to beat and where the seat currently is.
type LeaseResponse struct {
	Granted bool `json:"granted"`
	// Term is the highest term this witness has ever granted — its
	// fencing floor, reported on grants and denials alike.
	Term uint64 `json:"term"`
	// Holder is the current lease holder ("" when the lease has
	// expired and the seat is open).
	Holder string `json:"holder"`
	// TTLMsLeft is the remaining validity of the current lease.
	TTLMsLeft int64 `json:"ttl_ms_left"`
}

// DecodeLeaseRequest parses and validates one lease request body.
func DecodeLeaseRequest(r io.Reader) (LeaseRequest, error) {
	var req LeaseRequest
	dec := json.NewDecoder(io.LimitReader(r, 4096))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return LeaseRequest{}, fmt.Errorf("cluster: decode lease request: %w", err)
	}
	if err := req.Validate(); err != nil {
		return LeaseRequest{}, err
	}
	return req, nil
}

// SweepGridKey is the journal key under which a leader records an
// accepted sweep's full grid, so a successor can decode and resume it.
func SweepGridKey(fp string) string { return "sweep-grid:" + fp }

// SweepDoneKey marks a sweep fully merged and published.
func SweepDoneKey(fp string) string { return "sweep-done:" + fp }
