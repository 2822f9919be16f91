package cluster

import (
	"encoding/json"
	"net/http"
	"time"
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
		ReplicationLag: int(n.repl.lag()),
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
// (delegated while leading, redirected while following) plus the HA
// internals — lease-peer replication and journal snapshots.
func (n *HANode) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/sweeps", n.handleSweeps)
	mux.HandleFunc("POST /v1/replicate", n.handleReplicate)
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

// handleSweeps delegates to the leading coordinator's sweep handler,
// or answers 421 with a Bcn-Not-Leader hint so the client can fail
// over without guessing. The srv pointer is captured under the lock
// but the (long-lived) request runs outside it; a mid-request
// deposition cancels the sweep through the leadership context, not
// through this handler.
func (n *HANode) handleSweeps(w http.ResponseWriter, r *http.Request) {
	n.mu.RLock()
	srv := n.srv
	hint := n.leaderHint
	leading := n.role == RoleLeader
	n.mu.RUnlock()
	if !leading || srv == nil {
		if hint != "" && hint != n.cfg.Self {
			w.Header().Set(NotLeaderHeader, hint)
		}
		haWriteJSON(w, http.StatusMisdirectedRequest, clusterError{
			Error:  "this replica is not the leader",
			Reason: NotLeaderReason,
		})
		return
	}
	srv.handleSweep(w, r)
}

// handleReplicate applies a leader's streamed journal records. A
// replica that is itself leading refuses: accepting would let a
// deposed predecessor write into the new epoch. The role check and
// the apply share one read-hold of mu, so a leadership flip
// (exclusive) cannot land between them.
func (n *HANode) handleReplicate(w http.ResponseWriter, r *http.Request) {
	req, err := DecodeReplicateRequest(r.Body)
	if err != nil {
		haWriteJSON(w, http.StatusBadRequest, clusterError{Error: err.Error(), Reason: "malformed-replicate"})
		return
	}
	n.mu.RLock()
	if n.role == RoleLeader {
		n.mu.RUnlock()
		haWriteJSON(w, http.StatusConflict, clusterError{
			Error:  "replica is leading; refusing peer stream",
			Reason: NotLeaderReason,
		})
		return
	}
	if req.Term > n.maxSeen || (req.Term == n.maxSeen && n.leaderHint == "") {
		// Learn the leader from its own stream — cheaper than waiting
		// for a denied campaign to report it.
		defer func(term uint64, from string) {
			n.mu.Lock()
			if term > n.maxSeen {
				n.maxSeen = term
			}
			if from != "" {
				n.leaderHint = from
			}
			n.mu.Unlock()
		}(req.Term, req.From)
	}
	applied, aerr := n.applyRecords(req.Records)
	n.mu.RUnlock()
	if applied > 0 {
		n.m.AppliedRecords.Add(uint64(applied))
	}
	if aerr != nil {
		haWriteJSON(w, http.StatusInternalServerError, clusterError{Error: aerr.Error(), Reason: "journal-write-failed"})
		return
	}
	haWriteJSON(w, http.StatusOK, ReplicateResponse{Applied: applied, Term: req.Term})
}

// handleJournal streams this replica's full journal as NDJSON
// ReplicateRecord lines, sorted by key — the snapshot a lagging
// standby catches up from.
func (n *HANode) handleJournal(w http.ResponseWriter, _ *http.Request) {
	recs := SnapshotRecords(n.cfg.Journal)
	w.Header().Set("Content-Type", "application/x-ndjson")
	enc := json.NewEncoder(w)
	for _, rec := range recs {
		if err := enc.Encode(rec); err != nil {
			return
		}
	}
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
