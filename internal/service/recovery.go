// Recovery rebuilds a Service from Config.DataDir: load the snapshot,
// apply the write-ahead log tail on top of it, and reconstruct every
// running job's scheduler, site stores, and counters exactly as the
// crashed process left them.
//
// Scheduler state is reconstructed by *command replay*, not
// deserialization: the factory rebuilds the scheduler from (algorithm,
// workload, seed) — fully deterministic — and the job's journal records
// drive it through the same dispatch/complete/fail sequence the original
// instance saw. That reproduces internal state the schedulers could never
// serialize portably, in particular the ChooseTask(n) RNG stream: a
// recovered worker-centric scheduler makes the same future random draws an
// uninterrupted run would have made.
//
// Worker registrations and leases are NOT recovered — they are liveness
// state about processes that may not have survived the outage. Every
// assignment open at crash time is expired through the scheduler's normal
// failure path (journaled, so a second crash replays identically), and
// workers re-register on their next pull; the client loop does this
// transparently.
//
// Recovery is the service's one interpreter of the journal, in three
// steps:
//
//   - open loads the snapshot, checks the partition identity, applies the
//     log tail, and opens the writer over the log's valid prefix.
//   - apply folds one record in log order: a submit builds the job's
//     scheduler and stores, a dispatch, report or expiry drives them
//     through replayEvent, and a delete drops the job.
//   - finish expires what was in flight, rebuilds the counters and the
//     arbiter heap, and writes a compacting snapshot.
//
// New runs the three back to back. A Follower (follower.go) runs open when
// it starts, apply for every frame it streams from the leader, and finish
// when it is promoted: a standby is a recovery that has not finished yet.
// The shard stripe count is irrelevant to what is recovered: jobs land on
// whatever stripe the current Config routes them to.
package service

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"gridsched/internal/core"
	"gridsched/internal/journal"
	"gridsched/internal/service/api"
	"gridsched/internal/workload"
)

// openKey identifies one in-flight execution during replay. At most one
// live assignment exists per (task, worker slot): the service grants a
// worker one assignment at a time, and a slot is vacated only after its
// assignment ended.
type openKey struct {
	task   int32
	site   int32
	worker int32
}

// openExec mirrors an assignment's replay-relevant state: cancelled, the
// speculative-twin flag, and schedRef — the worker ref the scheduler
// associates with the execution (the primary's ref for a twin).
type openExec struct {
	cancelled bool
	spec      bool
	schedRef  core.WorkerRef
}

// grantKey identifies one granted lease across the whole log for the
// telemetry fold: the success-report duration sample is report Ts minus
// grant Ts, and the grant may live in the snapshot's ledgers or the tail.
type grantKey struct {
	job    string
	task   int32
	site   int32
	worker int32
}

// recoveryState is what replay carries from one record to the next and
// what finish consumes. It lives in Service.replay from open until finish.
type recoveryState struct {
	// open holds every replayed job's in-flight executions. A job the
	// snapshot already saw completed has no entry: a record naming it can
	// only be a cancelled replica's leftover.
	open   map[*job]map[openKey]*openExec
	grants map[grantKey]int64 // grant Ts (unix millis) of still-open leases
	// replayed counts the ledger events and log records applied; compact
	// asks finish for a snapshot even when nothing was replayed (a torn
	// tail to cut, or a snapshot with jobs to rewrite).
	replayed int
	compact  bool
}

// open is recovery's first step. It sweeps the temp files a crash left,
// loads the snapshot, applies the log tail on top of it in log order, and
// opens the writer over the log's valid prefix, truncating a torn tail.
// The service is then mid-replay: s.replay holds the executions still in
// flight until finish.
func (s *Service) open() error {
	start := time.Now()
	defer func() { s.counters.ReplayNanos.Add(time.Since(start).Nanoseconds()) }()
	if err := os.MkdirAll(s.pst.dir, 0o755); err != nil {
		return err
	}
	// Sweep snapshot and compaction temp files orphaned by a crash
	// between CreateTemp and rename; without this every crash during a
	// snapshot or a compaction leaks one file into the data dir forever.
	for _, path := range []string{s.snapshotPath(), s.walPath()} {
		stale, _ := filepath.Glob(path + ".tmp*") // the pattern is valid
		for _, p := range stale {
			_ = os.Remove(p)
		}
	}
	s.replay = &recoveryState{
		open:   make(map[*job]map[openKey]*openExec),
		grants: make(map[grantKey]int64),
	}
	snap, err := s.loadSnapshot()
	if err != nil {
		return err
	}
	info, err := journal.ReadLog(s.walPath(), snap.LastLSN, s.apply)
	if err != nil {
		return err
	}
	s.replay.compact = info.Torn || len(snap.Jobs) > 0
	// The commit stage comes up with the writer: finish journals the
	// expiry of every execution still in flight through it.
	w, err := journal.OpenWriter(s.walPath(), s.cfg.Fsync, s.cfg.FsyncInterval,
		max(snap.LastLSN, info.LastLSN), info.ValidSize, s.pst.journalMetrics)
	if err != nil {
		return err
	}
	s.pst.w = w
	s.pst.stage = newCommitStage(w)
	return nil
}

// checkSnapshot refuses a snapshot this service cannot take over: another
// format version, or another partition's data. Ids in a data dir were
// minted in the recorded partition's residue class, so recovering under
// any other identity would mis-route every one of them. Pre-partitioning
// snapshots (count 0) can only be the standalone identity.
func (c *Config) checkSnapshot(snap *snapshot) error {
	if snap.Version != snapshotVersion {
		return fmt.Errorf("service: snapshot version %d, this binary speaks %d", snap.Version, snapshotVersion)
	}
	idx, cnt := snap.PartitionIndex, snap.PartitionCount
	if cnt == 0 {
		idx, cnt = 0, 1
	}
	if idx != c.PartitionIndex || cnt != c.PartitionCount {
		return fmt.Errorf("service: data dir belongs to partition %d of %d, configured as %d of %d (re-partitioning needs a migration, not a restart)",
			idx, cnt, c.PartitionIndex, c.PartitionCount)
	}
	return nil
}

// loadSnapshot installs the snapshot, when there is one: the id sequence,
// the carry, fair-share and telemetry state, and every job, running ones
// with their scheduler rebuilt and their ledger replayed. It returns the
// snapshot so open knows where the log tail starts.
func (s *Service) loadSnapshot() (*snapshot, error) {
	var snap snapshot
	data, err := os.ReadFile(s.snapshotPath())
	switch {
	case os.IsNotExist(err):
		// Fresh data dir: keep the partition-seeded sequence New installed
		// rather than clobbering it with the zero value.
		snap.Version = snapshotVersion
		snap.Seq = s.seq.Load()
	case err != nil:
		return nil, err
	default:
		if err := json.Unmarshal(data, &snap); err != nil {
			return nil, fmt.Errorf("service: corrupt snapshot %s: %w", s.snapshotPath(), err)
		}
		if err := s.cfg.checkSnapshot(&snap); err != nil {
			return nil, err
		}
	}
	s.seq.Store(snap.Seq)
	s.pst.carry = snap.Carry
	// Fair-share state: the arbiter's virtual time and per-tenant durable
	// state come from the snapshot; tail records then re-apply charges and
	// quota changes in log order, exactly as the live paths did.
	s.coord.vtime = snap.VTime
	for _, st := range snap.Tenants {
		t := s.coord.tenant(st.Name)
		t.quota, t.dispatches = st.Quota, st.Dispatches
	}
	// Worker telemetry: the snapshot's fixed-point accumulators restore
	// bit-exact; tail records fold on top in LSN order (applyExecution),
	// reproducing the crashed process's EWMAs exactly.
	s.tel.restoreWorkers(snap.Workers)
	for i := range snap.Jobs {
		if err := s.restoreSnapJob(&snap.Jobs[i]); err != nil {
			return nil, err
		}
	}
	return &snap, nil
}

// restoreSnapJob materializes one snapshot entry. A running job gets its
// scheduler and stores and replays its ledger; nothing else can see the
// service yet, so no lock is taken.
func (s *Service) restoreSnapJob(sj *snapJob) error {
	if sj.State != api.JobRunning && sj.State != api.JobCompleted {
		return fmt.Errorf("service: snapshot job %s in state %q", sj.ID, sj.State)
	}
	j := &job{
		id:           sj.ID,
		name:         sj.Name,
		algorithm:    sj.Algorithm,
		seed:         sj.Seed,
		submissionID: sj.Submission,
		tenant:       sj.Tenant,
		weight:       normalizeWeight(sj.Weight, s.cfg.DefaultWeight),
		seq:          idNum(sj.ID),
		fair:         sj.Fair,
		heapIdx:      -1,
		tasks:        sj.Tasks,
		state:        sj.State,
		requires:     sj.Requires,
		deadlineMs:   sj.Deadline,
		submitted:    time.UnixMilli(sj.Submitted),
	}
	if sj.Finished != 0 {
		j.finished = time.UnixMilli(sj.Finished)
	}
	if sj.State == api.JobCompleted {
		j.dispatched, j.completed, j.failed = sj.Dispatched, sj.Completed, sj.Failed
		j.cancelled, j.expired, j.transfers = sj.Cancelled, sj.Expired, sj.Transfers
		j.speculated = sj.Speculated
		s.addRecoveredJob(j)
		return nil
	}
	if sj.Workload == nil {
		return fmt.Errorf("service: snapshot job %s running but has no workload", sj.ID)
	}
	j.w, j.ledger = sj.Workload, sj.Ledger
	if err := s.rebuildJob(j); err != nil {
		return fmt.Errorf("service: replay job %s (%s): %w", j.id, j.algorithm, err)
	}
	s.addRecoveredJob(j)
	open := s.replay.open[j]
	for i, e := range sj.Ledger {
		// Seed the open-grant timestamps: a tail success report's duration
		// sample is measured from a grant the snapshot may already carry.
		// (Closed leases of completed snapshot jobs lost their ledgers; a
		// tail report on one folds without a duration sample — the one
		// corner where a recovered EWMA can lag the uninterrupted one by a
		// sample.)
		k := grantKey{job: sj.ID, task: int32(e.Task), site: e.Site, worker: e.Worker}
		if e.Op == ledgerDispatch || e.Op == ledgerSpecDispatch {
			s.replay.grants[k] = e.Ts
		} else {
			delete(s.replay.grants, k)
		}
		if err := s.replayEvent(j, e, open); err != nil {
			return fmt.Errorf("service: replay job %s (%s): ledger event %d/%d: %w", j.id, j.algorithm, i, len(sj.Ledger), err)
		}
	}
	s.replay.replayed += len(sj.Ledger)
	return nil
}

// rebuildJob gives a running job what submission gave it: a validated
// workload, a fresh scheduler from the factory, and empty site stores.
func (s *Service) rebuildJob(j *job) error {
	if err := j.w.Validate(); err != nil {
		return err
	}
	if err := s.cfg.CheckWorkload(j.w); err != nil {
		return err
	}
	sched, err := s.buildScheduler(j.algorithm, j.w, j.seed)
	if err != nil {
		return err
	}
	j.sched = sched
	return s.attachSites(j)
}

// apply is recovery's second step: it folds one journal record into the
// service. open runs it over the log tail, and Follower.ApplyFrame over
// every frame it streams; either way records arrive one at a time, in log
// order. Each record takes the locks its live counterpart took, which are
// the locks the read paths take, so a follower serves reads meanwhile.
func (s *Service) apply(lsn uint64, payload []byte) error {
	var rec record
	if err := json.Unmarshal(payload, &rec); err != nil {
		return fmt.Errorf("service: journal record %d: %w", lsn, err)
	}
	s.replay.replayed++
	var err error
	switch rec.Op {
	case opSubmit:
		err = s.applySubmit(&rec)
	case opQuota:
		c := s.coord
		c.mu.Lock()
		c.tenant(rec.Tenant).quota = rec.Quota
		c.prune(rec.Tenant) // a revert can drop the last anchor, as live
		c.mu.Unlock()
	case opDispatch, opReport, opExpire:
		err = s.applyExecution(&rec)
	case opDelete:
		err = s.applyDelete(rec.Job)
	default:
		err = fmt.Errorf("unknown op %q", rec.Op)
	}
	if err != nil {
		return fmt.Errorf("service: journal record %d: %w", lsn, err)
	}
	return nil
}

// applySubmit registers a submitted job with its scheduler and stores,
// admitted at the current virtual time exactly as admit did live.
func (s *Service) applySubmit(rec *record) error {
	if rec.Workload == nil {
		return fmt.Errorf("submit of %s has no workload", rec.Job)
	}
	j := &job{
		id:           rec.Job,
		name:         rec.Name,
		algorithm:    rec.Algorithm,
		seed:         rec.Seed,
		submissionID: rec.Submission,
		tenant:       rec.Tenant,
		weight:       normalizeWeight(rec.Weight, s.cfg.DefaultWeight),
		seq:          idNum(rec.Job),
		heapIdx:      -1,
		tasks:        len(rec.Workload.Tasks),
		w:            rec.Workload,
		state:        api.JobRunning,
		requires:     rec.Requires,
		deadlineMs:   rec.Deadline,
		submitted:    time.UnixMilli(rec.Ts),
	}
	// Built before any lock is taken: nothing can reach the job until
	// addRecoveredJob.
	if err := s.rebuildJob(j); err != nil {
		return fmt.Errorf("job %s (%s): %w", j.id, j.algorithm, err)
	}
	sh := s.shardOf(j.id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	s.coord.mu.Lock()
	defer s.coord.mu.Unlock()
	j.fair = s.coord.vtime
	s.addRecoveredJob(j)
	if j.tasks == 0 {
		s.completeJobReplay(j, rec.Ts) // completed at submission, as live
	}
	return nil
}

// applyExecution applies a dispatch, report or expiry: worker telemetry,
// the fair-share charge, the job's ledger, and then the scheduler and
// stores through replayEvent.
func (s *Service) applyExecution(rec *record) error {
	rs := s.replay
	// Fold worker telemetry FIRST, before any early return: the record
	// exists, so the live process folded the observation when it wrote
	// it — even when the job is unknown or already completed here.
	ref := core.WorkerRef{Site: rec.Site, Worker: rec.Worker}
	gk := grantKey{job: rec.Job, task: int32(rec.Task), site: int32(rec.Site), worker: int32(rec.Worker)}
	switch {
	case rec.Op == opDispatch:
		rs.grants[gk] = rec.Ts
	case rec.Op == opReport && rec.Outcome == api.OutcomeSuccess:
		g, hasGrant := rs.grants[gk]
		delete(rs.grants, gk)
		s.tel.observeSuccess(ref, rec.Ts-g, hasGrant)
	default: // failure report or expiry
		delete(rs.grants, gk)
		s.tel.observeFailure(ref)
	}
	sh := s.shardOf(rec.Job)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	j := sh.jobs[rec.Job]
	if j == nil {
		// A report/expiry naming a job the log no longer holds is the trace
		// of a cancelled replica that outlived its deleted job, written by
		// a pre-residency-guard binary; there is nothing left to apply it
		// to. A dispatch into an unknown job, by contrast, can only be
		// corruption.
		if rec.Op == opReport || rec.Op == opExpire {
			return nil
		}
		return fmt.Errorf("%s for unknown job %s", rec.Op, rec.Job)
	}
	c := s.coord
	c.mu.Lock()
	defer c.mu.Unlock()
	e := ledgerRec{Op: ledgerExpire, Task: rec.Task, Site: int32(rec.Site), Worker: int32(rec.Worker), Ts: rec.Ts}
	switch {
	case rec.Op == opDispatch:
		e.Op = ledgerDispatch
		s.bumpSeqFromID(rec.Assignment)
		if rec.Spec {
			// A speculative twin never charged the arbiter live; replay
			// must not either. The tenant's dispatch total did move.
			e.Op = ledgerSpecDispatch
		} else {
			// Re-apply the fair-share charge in log order: tags and the
			// virtual time floor end up bit-identical to the live process
			// (which appends dispatch records in charge order, under the
			// coordinator), so a recovered arbiter makes the same choices.
			c.charge(j)
		}
		c.tenant(j.tenant).dispatches++
	case rec.Op == opReport && rec.Outcome == api.OutcomeSuccess:
		e.Op = ledgerSuccess
	case rec.Op == opReport:
		e.Op = ledgerFailure
	}
	open, replayed := rs.open[j]
	if !replayed {
		// The snapshot saw this job completed: the record is a leftover
		// report/expiry of a cancelled replica; only the counter survives.
		if e.Op == ledgerDispatch || e.Op == ledgerSpecDispatch {
			return fmt.Errorf("dispatch into completed job %s", j.id)
		}
		j.cancelled++
		return nil
	}
	if j.state == api.JobRunning {
		j.ledger = append(j.ledger, e)
	}
	if err := s.replayEvent(j, e, open); err != nil {
		return fmt.Errorf("job %s (%s): %w", j.id, j.algorithm, err)
	}
	return nil
}

// applyDelete drops a completed job, as DeleteJob did live.
func (s *Service) applyDelete(id string) error {
	sh := s.shardOf(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	j := sh.jobs[id]
	switch {
	case j == nil:
		return fmt.Errorf("delete of unknown job %s", id)
	case j.state != api.JobCompleted:
		return fmt.Errorf("delete of running job %s", id)
	}
	s.dropJobLocked(sh, j)
	delete(s.replay.open, j)
	return nil
}

// finish is recovery's last step. It expires every execution still in
// flight (the workers holding those leases predate the restart), rebuilds
// the monotone counters and the arbiter heap, prunes tenants, and writes a
// compacting snapshot. Its cost follows the resident jobs, the in-flight
// executions and the snapshot; it never reads the log. The service can
// dispatch afterwards.
func (s *Service) finish() error {
	start := time.Now()
	rs := s.replay
	now := s.now().UnixMilli()
	s.lockAll() // a promoting follower may still be serving reads
	var jobs []*job
	for _, sh := range s.shards {
		for _, j := range sh.jobs {
			if j.state == api.JobRunning {
				jobs = append(jobs, j)
			}
		}
	}
	sort.Slice(jobs, func(a, b int) bool { return jobs[a].seq < jobs[b].seq })
	for _, j := range jobs {
		n, err := s.expireOpen(j, rs.open[j], now)
		if err != nil {
			s.unlockAll()
			return fmt.Errorf("service: replay job %s (%s): %w", j.id, j.algorithm, err)
		}
		rs.replayed += n
	}
	// Monotone counters from carry + resident jobs, and the arbiter's
	// runnable set: every running job enters the heap with its replayed
	// tag (its tenant's weight and running gauges moved when it was
	// materialized).
	s.restoreCounters()
	for _, j := range jobs {
		if j.deadlineMs > 0 && now >= j.deadlineMs {
			j.urgent.Store(true) // sweeps refine this; seed the overdue case now
		}
		s.coord.push(j)
	}
	// Sweep anchorless tenant states: a legacy snapshot can materialize
	// tenants the live process had already pruned, and recovery must not
	// resurrect them.
	for name := range s.coord.tenants {
		s.coord.prune(name)
	}
	s.replay = nil
	s.unlockAll()

	// Compact: a fresh snapshot makes the next restart O(snapshot) and
	// clears the replayed tail. Skipped for a pristine data dir.
	if rs.replayed > 0 || rs.compact {
		s.snapMu.Lock()
		if err := s.snapshot(); err != nil {
			// Not fatal: the log keeps growing until a later snapshot
			// succeeds, which costs replay time but never correctness.
			fmt.Fprintf(os.Stderr, "gridschedd: post-recovery snapshot: %v\n", err)
		}
		s.snapMu.Unlock()
	}
	s.counters.ReplayRecords.Store(int64(rs.replayed))
	s.counters.ReplayNanos.Add(time.Since(start).Nanoseconds())
	return nil
}

// expireOpen expires j's executions still in flight, in (task, site,
// worker) order since map iteration is not deterministic. Each expiry is
// journaled like a live one, so a second crash replays the same way, and
// returns the number expired. Callers hold every lock (finish).
func (s *Service) expireOpen(j *job, open map[openKey]*openExec, now int64) (int, error) {
	keys := make([]openKey, 0, len(open))
	for k := range open {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(a, b int) bool {
		if keys[a].task != keys[b].task {
			return keys[a].task < keys[b].task
		}
		if keys[a].site != keys[b].site {
			return keys[a].site < keys[b].site
		}
		return keys[a].worker < keys[b].worker
	})
	for _, k := range keys {
		e := ledgerRec{Op: ledgerExpire, Task: workload.TaskID(k.task), Site: k.site, Worker: k.worker, Ts: now}
		s.mustAppend(&record{
			Op: opExpire, Ts: now, Job: j.id,
			Task: e.Task, Site: int(k.site), Worker: int(k.worker),
		})
		j.ledger = append(j.ledger, e)
		// These are fresh journal records, so fold them into telemetry
		// like any live expiry — the post-recovery snapshot covers them.
		s.tel.observeFailure(core.WorkerRef{Site: int(k.site), Worker: int(k.worker)})
		if err := s.replayEvent(j, e, open); err != nil {
			return 0, err
		}
		s.counters.RecoveredExpired.Add(1)
	}
	return len(keys), nil
}

// replayEvent applies one ledger event, keeping open in sync with what the
// live assignment table would have held.
func (s *Service) replayEvent(j *job, e ledgerRec, open map[openKey]*openExec) error {
	key := openKey{task: int32(e.Task), site: e.Site, worker: e.Worker}
	ref := core.WorkerRef{Site: int(e.Site), Worker: int(e.Worker)}
	switch e.Op {
	case ledgerDispatch, ledgerSpecDispatch:
		if j.state != api.JobRunning || j.sched == nil {
			return fmt.Errorf("dispatch of task %d into %s job", e.Task, j.state)
		}
		if int(e.Task) < 0 || int(e.Task) >= len(j.w.Tasks) {
			return fmt.Errorf("dispatch of unknown task %d", e.Task)
		}
		if ref.Site < 0 || ref.Site >= s.cfg.Sites || ref.Worker < 0 || ref.Worker >= s.cfg.WorkersPerSite {
			return fmt.Errorf("dispatch at %+v outside the configured pool", ref)
		}
		if open[key] != nil {
			return fmt.Errorf("task %d already in flight at %+v", e.Task, ref)
		}
		schedRef := ref
		if e.Op == ledgerSpecDispatch {
			// A twin was granted above the scheduler: no ReplayAssign. Its
			// schedRef is the live primary's ref, re-derived by the same
			// deterministic rule the grant used — lowest (site, worker)
			// among the task's open non-speculative executions.
			found := false
			for k, o := range open {
				if k.task != int32(e.Task) || o.spec || o.cancelled {
					continue
				}
				r := core.WorkerRef{Site: int(k.site), Worker: int(k.worker)}
				if !found || r.Site < schedRef.Site ||
					(r.Site == schedRef.Site && r.Worker < schedRef.Worker) {
					schedRef, found = r, true
				}
			}
			if !found {
				return fmt.Errorf("speculative dispatch of task %d with no live primary", e.Task)
			}
		} else if err := replayAssignSched(j.sched, e.Task, ref); err != nil {
			return err
		}
		sh := s.shardOf(j.id)
		task := j.w.Tasks[e.Task]
		fetched, evicted, err := j.stores[ref.Site].CommitBatchInto(task.Files, sh.fetchBuf[:0], sh.evictBuf[:0])
		if err != nil {
			return fmt.Errorf("stage task %d at site %d: %w", e.Task, ref.Site, err)
		}
		sh.fetchBuf, sh.evictBuf = fetched[:0], evicted[:0]
		j.sched.NoteBatch(ref.Site, task.Files, fetched, evicted)
		j.transfers += int64(len(fetched))
		j.dispatched++
		if e.Op == ledgerSpecDispatch {
			j.speculated++
		}
		open[key] = &openExec{spec: e.Op == ledgerSpecDispatch, schedRef: schedRef}
	case ledgerSuccess, ledgerFailure, ledgerExpire:
		o := open[key]
		if o == nil {
			return fmt.Errorf("%d on task %d at %+v with no open execution", e.Op, e.Task, ref)
		}
		delete(open, key)
		switch {
		case o.cancelled:
			j.cancelled++
		case e.Op == ledgerSuccess:
			victims := j.sched.OnTaskComplete(e.Task, o.schedRef)
			j.completed++
			for _, v := range victims {
				vk := openKey{task: int32(e.Task), site: int32(v.Site), worker: int32(v.Worker)}
				if vo := open[vk]; vo != nil {
					vo.cancelled = true
				}
			}
			// First-report-wins blanket cancel, mirroring applyReportLocked:
			// every other open execution of the task is obsolete.
			for k2, o2 := range open {
				if k2.task == int32(e.Task) && !o2.cancelled {
					o2.cancelled = true
				}
			}
			if j.sched.Remaining() == 0 {
				s.completeJobReplay(j, e.Ts)
				// Mirror completeJobLocked's cancellation sweep: whatever is
				// still in flight is an obsolete replica.
				for _, vo := range open {
					vo.cancelled = true
				}
			}
		case e.Op == ledgerFailure:
			j.failed++
			if j.sched != nil && !openSibling(open, int32(e.Task), o.schedRef) {
				j.sched.OnExecutionFailed(e.Task, o.schedRef)
			}
		default: // ledgerExpire
			j.expired++
			if j.sched != nil && !openSibling(open, int32(e.Task), o.schedRef) {
				j.sched.OnExecutionFailed(e.Task, o.schedRef)
			}
		}
	default:
		return fmt.Errorf("unknown ledger op %d", e.Op)
	}
	return nil
}

// openSibling mirrors liveSiblingLocked for replay: another open,
// non-cancelled execution of the task shares schedRef, so the failed or
// expired half of a primary/twin pair must not requeue the task.
func openSibling(open map[openKey]*openExec, task int32, schedRef core.WorkerRef) bool {
	for k, o := range open {
		if k.task == task && !o.cancelled && o.schedRef == schedRef {
			return true
		}
	}
	return false
}

// completeJobReplay is completeJobLocked for replay: replayEvent
// cancel-marks the open executions itself, and nobody is parked to wake.
// Callers hold the job's shard and the coordinator.
func (s *Service) completeJobReplay(j *job, tsMillis int64) {
	j.state = api.JobCompleted
	j.finished = time.UnixMilli(tsMillis)
	j.w, j.sched, j.stores, j.ledger = nil, nil, nil, nil
	s.coord.retire(j)
	s.counters.OpenJobs.Add(-1)
}

// addRecoveredJob registers a job during replay: into its shard, the
// submission index, and its tenant's record count; a running job also
// joins its tenant's weight and running gauges, the open-job count, and
// the replay's in-flight table. The record is anchored HERE, at
// materialization, so a later delete (dropJobLocked, which decrements)
// always runs against a count that included the job, exactly as the live
// path does. Callers hold the job's shard and the coordinator, or own the
// service outright (loadSnapshot).
func (s *Service) addRecoveredJob(j *job) {
	s.shardOf(j.id).jobs[j.id] = j
	c := s.coord
	if j.submissionID != "" {
		c.submissions[j.submissionID] = j.id
	}
	t := c.tenant(j.tenant)
	t.records++
	if j.state == api.JobRunning {
		t.weight += int64(j.weight)
		t.running++
		s.counters.OpenJobs.Add(1)
		s.replay.open[j] = make(map[openKey]*openExec)
	}
	s.bumpSeqFromID(j.id)
}

// restoreCounters rebuilds the monotone /metrics totals as carry (deleted
// jobs) plus the resident jobs; replay kept the open-job gauge. Process-local series — pulls, heartbeats,
// dispatch latency, stale reports — restart at zero.
func (s *Service) restoreCounters() {
	c := s.pst.carry
	for _, sh := range s.shards {
		for _, j := range sh.jobs {
			c.Jobs++
			if j.state == api.JobCompleted {
				c.CompletedJobs++
			}
			c.Dispatched += int64(j.dispatched)
			c.Completions += int64(j.completed)
			c.Failures += int64(j.failed)
			c.Cancellations += int64(j.cancelled)
			c.Expired += int64(j.expired)
			c.Speculated += int64(j.speculated)
		}
	}
	s.counters.JobsSubmitted.Store(c.Jobs)
	s.counters.JobsCompleted.Store(c.CompletedJobs)
	s.counters.Assignments.Store(c.Dispatched)
	s.counters.Completions.Store(c.Completions)
	s.counters.Failures.Store(c.Failures)
	s.counters.Cancellations.Store(c.Cancellations)
	s.counters.LeasesExpired.Store(c.Expired)
	s.counters.SpeculativeDispatches.Store(c.Speculated)
}

// idNum extracts the numeric part of a "j<n>"/"a<n>" id (0 when the id
// does not parse). For jobs it doubles as the arbiter's deterministic
// tie-breaker AND the shard routing key: it is the submission sequence
// number, so consecutively submitted jobs round-robin across stripes.
func idNum(id string) int64 {
	if len(id) < 2 {
		return 0
	}
	n := int64(0)
	for _, r := range id[1:] {
		if r < '0' || r > '9' {
			return 0
		}
		n = n*10 + int64(r-'0')
	}
	return n
}

// bumpSeqFromID raises the id sequence above a recovered "j<n>"/"a<n>" id
// so freshly minted ids never collide with journaled ones. (Worker ids
// carry a per-process nonce instead: registrations are not journaled, so
// their ids cannot be recovered this way.) Recovery is single-threaded,
// so the load/store pair cannot race.
func (s *Service) bumpSeqFromID(id string) {
	if n := idNum(id); n > s.seq.Load() {
		s.seq.Store(n)
	}
}
