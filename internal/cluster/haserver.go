package cluster

import (
	"encoding/json"
	"errors"
	"net/http"
	"strconv"
	"time"

	"bcnphase/internal/runstate"
)

// HAStatus is the /statusz document of one HA replica: leadership
// first (this is what operators and failing-over clients look at),
// then the inner coordinator status while leading.
type HAStatus struct {
	Self           string   `json:"self"`
	Role           string   `json:"role"`
	Term           uint64   `json:"term"`
	MaxTermSeen    uint64   `json:"max_term_seen"`
	Leader         string   `json:"leader,omitempty"`
	LeaseMsLeft    int64    `json:"lease_ms_left,omitempty"`
	Peers          []string `json:"peers"`
	Workers        int      `json:"workers"`
	JournalRecords int      `json:"journal_records"`
	ReplicationLag int      `json:"replication_lag_records"`

	Coordinator *CoordinatorStatus `json:"coordinator,omitempty"`
}

// Status snapshots the replica for /statusz.
func (n *HANode) Status() HAStatus {
	n.mu.RLock()
	st := HAStatus{
		Self:           n.cfg.Self,
		Role:           n.role,
		Term:           n.term,
		MaxTermSeen:    n.maxSeen,
		Leader:         n.leaderHint,
		Peers:          n.cfg.Peers,
		Workers:        len(n.cfg.Workers),
		JournalRecords: n.cfg.Journal.Len(),
		ReplicationLag: int(n.m.ReplLag.Value()),
	}
	var srv *Server
	if n.role == RoleLeader {
		srv = n.srv
		if left := time.Until(n.leaseUntil); left > 0 {
			st.LeaseMsLeft = int64(left / time.Millisecond)
		}
	}
	n.mu.RUnlock()
	if srv != nil {
		cs := srv.Status()
		st.Coordinator = &cs
	}
	return st
}

// Handler is the replica's HTTP surface: the coordinator sweep API
// (delegated while leading, redirected while following) plus the
// journal tail standbys catch up from.
func (n *HANode) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/sweeps", n.handleSweeps)
	mux.HandleFunc("GET /v1/journal", n.handleJournal)
	mux.HandleFunc("GET /statusz", n.handleStatusz)
	mux.HandleFunc("GET /healthz", n.handleHealthz)
	mux.Handle("GET /metrics", n.registry.Handler())
	return mux
}

func haWriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// notLeader answers 421 with a Bcn-Not-Leader hint at the last known
// leader, so a client or standby can go there without guessing.
func (n *HANode) notLeader(w http.ResponseWriter, hint string) {
	if hint != "" && hint != n.cfg.Self {
		w.Header().Set(NotLeaderHeader, hint)
	}
	haWriteJSON(w, http.StatusMisdirectedRequest, clusterError{
		Error:  "this replica is not the leader",
		Reason: NotLeaderReason,
	})
}

// handleSweeps delegates to the leading coordinator's sweep handler,
// or answers 421 (notLeader). The srv pointer is captured under the
// lock but the (long-lived) request runs outside it; a mid-request
// deposition cancels the sweep through the leadership context, not
// through this handler.
func (n *HANode) handleSweeps(w http.ResponseWriter, r *http.Request) {
	n.mu.RLock()
	srv := n.srv
	hint := n.leaderHint
	leading := n.role == RoleLeader
	n.mu.RUnlock()
	if !leading || srv == nil {
		n.notLeader(w, hint)
		return
	}
	srv.handleSweep(w, r)
}

// handleJournal serves one tail read: the leader's synced journal lines
// past the request's cursor, cut on whole lines at MaxWireBytes, with
// its term and the next cursor in the Bcn-Term and Bcn-Cursor headers.
// The status is 206 when the cut left synced lines behind, 200 when the
// lines reach the leader's end. Only the leader answers; a standby's
// journal is not the log to follow.
func (n *HANode) handleJournal(w http.ResponseWriter, r *http.Request) {
	from, err := runstate.ParseCursor(r.URL.Query().Get("cursor"))
	if err != nil {
		haWriteJSON(w, http.StatusBadRequest, clusterError{Error: err.Error(), Reason: "bad-cursor"})
		return
	}
	n.mu.RLock()
	term, hint, leading := n.term, n.leaderHint, n.role == RoleLeader
	n.mu.RUnlock()
	if !leading {
		n.notLeader(w, hint)
		return
	}
	lines, next, more, err := n.cfg.Journal.Tail(from, MaxWireBytes)
	switch {
	case errors.Is(err, runstate.ErrCursorRange):
		haWriteJSON(w, http.StatusBadRequest, clusterError{Error: err.Error(), Reason: "bad-cursor"})
		return
	case err != nil:
		haWriteJSON(w, http.StatusServiceUnavailable, clusterError{Error: err.Error(), Reason: "journal-unavailable"})
		return
	}
	w.Header().Set(TermHeader, strconv.FormatUint(term, 10))
	w.Header().Set(CursorHeader, next.String())
	w.Header().Set("Content-Type", "application/x-ndjson")
	if more {
		w.WriteHeader(http.StatusPartialContent)
	}
	_, _ = w.Write(lines)
}

func (n *HANode) handleStatusz(w http.ResponseWriter, _ *http.Request) {
	haWriteJSON(w, http.StatusOK, n.Status())
}

// handleHealthz is liveness, not leadership: a healthy standby is a
// healthy process. Clients that need the leader use /statusz or the
// 421 redirect.
func (n *HANode) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	haWriteJSON(w, http.StatusOK, struct {
		OK   bool   `json:"ok"`
		Role string `json:"role"`
	}{true, func() string { n.mu.RLock(); defer n.mu.RUnlock(); return n.role }()})
}
