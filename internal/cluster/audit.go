package cluster

import (
	"context"
	"fmt"
)

// This file is the coordinator's result-integrity audit: digests (see
// digest.go) catch corruption in flight, but a worker that lies —
// bit-rot, a bad build, partial invariant clamping — signs its lies
// consistently, so a sample of completed shards is re-executed on a
// *different* worker and compared bit-exactly before anything reaches
// the journal. Divergence is settled by a third worker: whoever the
// quorum outvotes is quarantined (breaker state that never half-opens),
// its leases are discarded, its queued shards move, and every shard it
// merged without an audit is revoked and re-executed.

// auditVerdict is what the audit concludes about one completed shard.
type auditVerdict struct {
	// merge reports whether res should be merged at all; false means the
	// shard was requeued (inconclusive quorum) or abandoned (sweep
	// cancelled) and the caller must not touch it again.
	merge bool
	// res is the rows to merge — the producer's, or the quorum majority's
	// when the producer was outvoted.
	res ShardResult
	// winner is the worker credited with res.
	winner int
	// audited reports whether a second worker confirmed res bit-exactly.
	audited bool
}

// shouldAudit decides whether one freshly completed shard is sampled for
// re-execution. With auditing off this is a two-comparison fast path —
// the merge hot path must not pay for a feature that is disabled.
func (c *Coordinator) shouldAudit(index int) bool {
	if f := c.cfg.auditFor; f != nil {
		return f(index)
	}
	f := c.cfg.AuditFraction
	if f <= 0 {
		return false
	}
	if f >= 1 {
		return true
	}
	return c.rng.Float64() < f
}

// nextReplica returns the shard's next distinct eligible worker on the
// consistent-hash ring, excluding the listed workers (the producer, and
// the auditor during a tiebreak). Placement is as stable as the worker
// set allows: the same shard audits on the same replica across retries
// and restarts.
func (c *Coordinator) nextReplica(fp string, index int, exclude ...int) int {
	return c.ring.owner(DoneKey(fp, index), func(w int) bool {
		for _, x := range exclude {
			if w == x {
				return false
			}
		}
		return c.eligible(w)
	})
}

// auditDispatch re-executes sr on worker w for comparison, with the same
// lease/retry discipline as a primary dispatch, and settles the breaker
// bookkeeping the worker loop would normally do.
func (c *Coordinator) auditDispatch(ctx context.Context, st *sweepState, w int, sr *shardRun) (ShardResult, error) {
	res, err := c.dispatch(ctx, st, w, sr)
	switch {
	case err == nil:
		c.breaker.Success(c.cfg.Workers[w])
	case sweepWindingDown(ctx, err):
		c.breaker.Release(c.cfg.Workers[w])
	default:
		c.breaker.Failure(c.cfg.Workers[w])
		c.m.WorkerErrors.With(c.cfg.Workers[w]).Inc()
	}
	return res, err
}

// sweepWindingDown reports whether err is the sweep winding down (context
// cancelled or coordinator closed) rather than a worker failing.
func sweepWindingDown(ctx context.Context, err error) bool {
	return ctx.Err() != nil || err == errCoordinatorClosed
}

// audit samples sr's completed result for re-execution. It runs before
// merge — synchronously in the producing worker's dispatch goroutine —
// so divergent rows are settled (or the shard requeued) before anything
// reaches the journal.
func (c *Coordinator) audit(ctx context.Context, st *sweepState, w int, sr *shardRun, res ShardResult) auditVerdict {
	if !c.shouldAudit(sr.shard.Index) {
		return auditVerdict{merge: true, res: res, winner: w}
	}
	c.m.AuditSampled.Inc()
	v := c.nextReplica(st.fp, sr.shard.Index, w)
	if v < 0 {
		// No second worker to compare against (single-worker fleet, or
		// everyone else down). Merge unaudited and say so — revocation
		// still covers it if w is later quarantined.
		c.m.AuditSkipped.Inc()
		return auditVerdict{merge: true, res: res, winner: w}
	}
	vres, err := c.auditDispatch(ctx, st, v, sr)
	if err != nil {
		if sweepWindingDown(ctx, err) {
			// Sweep winding down: leave the shard unmerged; dispatchAll
			// reports the interruption.
			return auditVerdict{}
		}
		// The auditor failed, not the producer. Merge unaudited rather
		// than stalling progress on a degraded fleet.
		c.m.AuditSkipped.Inc()
		c.logf("audit: shard %d auditor %s unavailable (%v); merging unaudited", sr.shard.Index, c.cfg.Workers[v], err)
		return auditVerdict{merge: true, res: res, winner: w}
	}
	if rowsEqual(res.Rows, vres.Rows) {
		c.m.AuditMatched.Inc()
		return auditVerdict{merge: true, res: res, winner: w, audited: true}
	}
	div := diffRows(res.Rows, vres.Rows)
	c.m.AuditDivergent.Inc()
	c.m.AuditDivergentRows.Add(uint64(div))
	c.logf("audit: shard %d diverges between %s and %s (%d rows); tiebreaking",
		sr.shard.Index, c.cfg.Workers[w], c.cfg.Workers[v], div)

	u := c.nextReplica(st.fp, sr.shard.Index, w, v)
	if u < 0 {
		// Two workers, two answers, nobody to break the tie. Trust
		// neither: requeue the shard for a fresh execution.
		c.m.AuditInconclusive.Inc()
		c.requeueAudit(st, sr, w)
		return auditVerdict{}
	}
	ures, err := c.auditDispatch(ctx, st, u, sr)
	if err != nil {
		if sweepWindingDown(ctx, err) {
			return auditVerdict{}
		}
		c.m.AuditInconclusive.Inc()
		c.requeueAudit(st, sr, w)
		return auditVerdict{}
	}
	switch {
	case rowsEqual(ures.Rows, res.Rows):
		// Producer and tiebreaker agree: the auditor lied.
		c.quarantine(v, "outvoted 2-1 auditing shard")
		return auditVerdict{merge: true, res: res, winner: w, audited: true}
	case rowsEqual(ures.Rows, vres.Rows):
		// Auditor and tiebreaker agree: the producer lied. Merge the
		// majority's rows, credited to the auditor.
		c.quarantine(w, "outvoted 2-1 producing shard")
		return auditVerdict{merge: true, res: vres, winner: v, audited: true}
	default:
		// Three workers, three answers. No quorum, no blame — requeue.
		c.m.AuditInconclusive.Inc()
		c.requeueAudit(st, sr, w)
		return auditVerdict{}
	}
}

// requeueAudit hands an unsettled shard back for a fresh execution,
// charging its re-assignment budget so a fleet that can never agree
// fails loudly instead of looping forever.
func (c *Coordinator) requeueAudit(st *sweepState, sr *shardRun, producer int) {
	sr.assignments++
	if sr.assignments >= c.maxAssignments {
		st.mu.Lock()
		if st.fatal == nil {
			st.fatal = fmt.Errorf("cluster: shard %d exhausted %d assignments without an audit quorum (workers cannot agree on its rows)",
				sr.shard.Index, sr.assignments)
		}
		st.mu.Unlock()
		st.cond.Broadcast()
		return
	}
	c.requeue(st, sr, producer)
}

// quarantine applies the quorum verdict to worker q: terminal breaker
// state, leases discarded, queued shards redistributed, and every shard
// merged from it without an audit revoked and re-executed. Idempotent —
// a worker outvoted twice concurrently is processed once.
func (c *Coordinator) quarantine(q int, why string) {
	name := c.cfg.Workers[q]
	if !c.breaker.Quarantine(name) {
		return
	}
	c.m.AuditQuarantined.Inc()
	c.logf("audit: worker %s quarantined (%s)", name, why)
	// Discard its uncommitted leases: in-flight dispatches to it fail now
	// instead of at lease expiry.
	c.mu.Lock()
	for cp := range c.inflight[q] {
		(*cp)()
	}
	c.mu.Unlock()
	// Its queued shards move to the remaining workers...
	c.redistribute(q)
	// ...and its unaudited history is withdrawn.
	c.revoke(q)
}

// revoke withdraws every shard worker q merged without an audit, across
// all in-flight sweeps: the rows leave the in-memory merge, the shard
// re-enters a queue marked revoked (so its re-merge force-records,
// superseding the distrusted journal values), and pending is restored.
func (c *Coordinator) revoke(q int) {
	c.mu.Lock()
	runs := make([]*sweepState, 0, len(c.runs))
	for st := range c.runs {
		runs = append(runs, st)
	}
	c.mu.Unlock()
	for _, st := range runs {
		st.mu.Lock()
		if st.finished() {
			// The sweep completed (or failed) between the verdict and
			// here; its dispatch loops are gone, so its merged rows are
			// final. The residual window of trusting an unaudited worker
			// is exactly the unsampled fraction — documented, not hidden.
			st.mu.Unlock()
			continue
		}
		srs := st.unaudited[q]
		delete(st.unaudited, q)
		revoked := 0
		for _, sr := range srs {
			sr.revoked = true
			for _, idx := range sr.shard.GridIdx {
				if st.have[idx] {
					st.have[idx] = false
					st.fresh--
				}
			}
			st.pending++
			revoked++
			c.m.AuditRevoked.Inc()
			target := c.ring.owner(DoneKey(st.fp, sr.shard.Index), func(w int) bool {
				return w != q && c.eligible(w)
			})
			if target < 0 {
				target = q // nobody eligible; parked until someone is
			} else {
				c.m.Reassigned.Inc()
			}
			st.queues[target] = append(st.queues[target], sr)
		}
		st.mu.Unlock()
		if revoked > 0 {
			c.logf("audit: revoked %d unaudited shards merged from %s; re-executing", revoked, c.cfg.Workers[q])
		}
		st.cond.Broadcast()
	}
}
