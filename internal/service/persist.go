package service

import (
	"encoding/json"
	"fmt"
	"io"
	"log"
	"path/filepath"
	"sort"
	"strconv"
	"sync/atomic"
	"time"

	"gridsched/internal/core"
	"gridsched/internal/journal"
	"gridsched/internal/service/api"
	"gridsched/internal/workload"
)

// Persistence layout inside Config.DataDir.
const (
	walFile      = "wal.log"
	snapshotFile = "snapshot.json"
)

// Journal record ops. The write-ahead log records every externally visible
// mutation — job submission, task dispatch, execution report, lease
// expiry, job deletion — before it is acknowledged; everything else
// (worker registration, lease renewals, long polls) is ephemeral and is
// reconstructed as re-registration after a restart.
const (
	opSubmit   = "submit"
	opDispatch = "dispatch"
	opReport   = "report"
	opExpire   = "expire"
	opDelete   = "delete"
	// opQuota records a per-tenant in-flight quota override (PUT
	// /v1/tenants/{tenant}); quotas gate live dispatch, so they must
	// survive restarts like every other externally visible setting.
	opQuota = "quota"
)

// record is the JSON payload of one journal frame.
type record struct {
	Op string `json:"op"`
	Ts int64  `json:"ts"` // unix milliseconds, for operators and recovered timestamps

	Job string `json:"job,omitempty"`

	// opSubmit
	Name       string `json:"name,omitempty"`
	Algorithm  string `json:"algorithm,omitempty"`
	Seed       int64  `json:"seed,omitempty"`
	Submission string `json:"submission,omitempty"`
	// Tenant rides on opSubmit (the job's tenant, resolved) and opQuota
	// (the tenant being configured). Weight is the job's resolved
	// fair-share weight — journaled resolved so replay cannot be skewed by
	// a changed server default; absent (0) in pre-fair-share journals and
	// re-resolved against the default at replay. Quota is opQuota's new
	// in-flight cap (0: revert to the server default).
	Tenant string `json:"tenant,omitempty"`
	Weight int    `json:"weight,omitempty"`
	Quota  int    `json:"quota,omitempty"`

	// Context-aware scheduling (opSubmit): required worker tags and the
	// soft deadline (unix millis, 0 = none). Journaled with the submit so
	// a recovered job enforces the same constraints.
	Requires []string `json:"requires,omitempty"`
	Deadline int64    `json:"deadline,omitempty"`

	// opDispatch / opReport / opExpire
	Task       workload.TaskID `json:"task,omitempty"`
	Site       int             `json:"site,omitempty"`
	Worker     int             `json:"worker,omitempty"`
	Assignment string          `json:"assignment,omitempty"` // opDispatch: minted id, for seq recovery and debugging
	Outcome    string          `json:"outcome,omitempty"`    // opReport
	// Spec marks an opDispatch as a speculative twin grant: replayed
	// without a scheduler NextFor and without a fair charge, exactly as
	// it was granted (see trySpeculateLocked / replayEvent).
	Spec bool `json:"spec,omitempty"`

	// opSubmit's workload. Last, so encodeRecord can append it with the
	// reflection-free encoder and still produce json.Marshal's bytes.
	Workload *workload.Workload `json:"workload,omitempty"`
}

// Ledger ops: the per-job replay history, a compact projection of the
// job's journal records. Replaying a ledger through the job's freshly
// rebuilt scheduler reproduces its dispatch state exactly (see recovery.go).
const (
	ledgerDispatch = uint8(iota)
	ledgerSuccess
	ledgerFailure
	ledgerExpire
	// ledgerSpecDispatch is a speculative twin grant: the task was
	// re-leased alongside a live primary without consulting the
	// scheduler. Replay restages the batch and NoteBatches it, but issues
	// no ReplayAssign.
	ledgerSpecDispatch
)

// ledgerRec is one replayable scheduler-affecting event.
type ledgerRec struct {
	Op     uint8           `json:"op"`
	Task   workload.TaskID `json:"t"`
	Site   int32           `json:"s"`
	Worker int32           `json:"w"`
	Ts     int64           `json:"ms,omitempty"` // unix milliseconds
}

// carryCounters preserves the monotone totals of deleted jobs across
// snapshots, so the global /metrics counters stay exact over restarts.
type carryCounters struct {
	Jobs          int64 `json:"jobs"`
	CompletedJobs int64 `json:"completedJobs"`
	Dispatched    int64 `json:"dispatched"`
	Completions   int64 `json:"completions"`
	Failures      int64 `json:"failures"`
	Cancellations int64 `json:"cancellations"`
	Expired       int64 `json:"expired"`
	Speculated    int64 `json:"speculated,omitempty"`
}

// snapshot is the atomically-replaced checkpoint: everything the service
// needs so that log records at or below LastLSN can be discarded.
// Completed jobs shrink to their status summary; running jobs carry their
// workload and replay ledger. Scheduler internals (weight-class indexes,
// RNG state) are deliberately NOT serialized — they are reconstructed by
// replaying the ledger through a freshly built scheduler, which reproduces
// the exact state (including pending random draws) of the crashed process.
type snapshot struct {
	Version int   `json:"version"`
	Seq     int64 `json:"seq"`
	// Partition identity the data dir was written under (see
	// Config.PartitionIndex). Count 0 marks a pre-partitioning snapshot,
	// which recovers only as the standalone identity 0 of 1 — the only
	// identity such a dir can have minted ids for.
	PartitionIndex int           `json:"partitionIndex,omitempty"`
	PartitionCount int           `json:"partitionCount,omitempty"`
	LastLSN        uint64        `json:"lastLsn"`
	Carry          carryCounters `json:"carry"`
	// VTime is the fair-share arbiter's virtual time floor and Tenants its
	// per-tenant durable state; journal tail records re-apply charges on
	// top (see recovery.go). Both absent in pre-fair-share snapshots,
	// which recover with all tags zero — submission order, the old
	// behavior.
	VTime   uint64       `json:"vtime,omitempty"`
	Tenants []snapTenant `json:"tenants,omitempty"` // sorted by name
	// Workers is the per-slot telemetry (duration/failure EWMAs); journal
	// tail records fold on top in LSN order. Sorted by (site, worker).
	// Absent in pre-context snapshots, which recover with cold telemetry.
	Workers []snapWorker `json:"workers,omitempty"`
	// Jobs, in submission order, comes last: writeSnapshot streams it.
	Jobs []snapJob `json:"jobs"`
}

// snapWorker is one worker slot's accumulated telemetry in a snapshot.
// Fixed-point accumulators are serialized raw so restore is bit-exact.
type snapWorker struct {
	Site     int   `json:"site"`
	Worker   int   `json:"worker"`
	DurEwma  int64 `json:"durEwma,omitempty"`
	FailEwma int64 `json:"failEwma,omitempty"`
	Samples  int64 `json:"samples,omitempty"`
	Events   int64 `json:"events"`
}

// snapTenant is one tenant's durable state in a snapshot: its quota
// override and its exact cumulative dispatch total (in-flight counts and
// share windows are liveness state and restart empty).
type snapTenant struct {
	Name       string `json:"name"`
	Quota      int    `json:"quota,omitempty"`
	Dispatches int64  `json:"dispatches,omitempty"`
}

const snapshotVersion = 1

// snapJob is one resident job in a snapshot.
type snapJob struct {
	ID         string `json:"id"`
	Name       string `json:"name"`
	Algorithm  string `json:"algorithm"`
	Seed       int64  `json:"seed"`
	Submission string `json:"submission,omitempty"`
	State      string `json:"state"`
	Tasks      int    `json:"tasks"`
	Submitted  int64  `json:"submittedMs"`
	Finished   int64  `json:"finishedMs,omitempty"`
	// Fair-share state: resolved tenant and weight, plus (running jobs
	// only) the arbiter's virtual finish tag, restored exactly so the
	// post-recovery dispatch order matches an uninterrupted run.
	Tenant string `json:"tenant,omitempty"`
	Weight int    `json:"weight,omitempty"`
	Fair   uint64 `json:"fair,omitempty"`

	// Context-aware scheduling: the job's required worker tags and soft
	// deadline (unix millis, 0 = none), restored verbatim.
	Requires []string `json:"requires,omitempty"`
	Deadline int64    `json:"deadline,omitempty"`

	// Completed jobs: the surviving summary.
	Dispatched int   `json:"dispatched,omitempty"`
	Completed  int   `json:"completed,omitempty"`
	Failed     int   `json:"failed,omitempty"`
	Cancelled  int   `json:"cancelled,omitempty"`
	Expired    int   `json:"expired,omitempty"`
	Speculated int   `json:"speculated,omitempty"`
	Transfers  int64 `json:"transfers,omitempty"`

	// Running jobs: replay inputs. Last, so writeSnapshot can stream them.
	Workload *workload.Workload `json:"workload,omitempty"`
	Ledger   []ledgerRec        `json:"ledger,omitempty"`
}

// persistence is the journaling state of a Service with Config.DataDir
// set. carry is guarded by the coordinator mutex; the cadence fields are
// atomic; stage serializes appends (commit.go).
type persistence struct {
	dir            string
	w              *journal.Writer
	stage          *commitStage
	journalMetrics *journal.Metrics
	carry          carryCounters
	// Snapshot cadence (snapshotDue): records appended since the last
	// capture, and the journal byte count (journalMetrics.Bytes) the log
	// must reach before the next snapshot — the count at the last
	// capture plus that snapshot's size.
	sinceSnapshot atomic.Int64
	dueBytes      atomic.Int64
	// hook, when set, is called between the snapshot's steps with
	// "captured" (locks released, nothing written) and "durable" (the
	// file is in place, the log not yet compacted). Tests use it to
	// crash or append inside those windows.
	hook func(step string)
}

// refreshJournalMetrics copies the log writer's counters into the service
// counters rendered at /metrics.
func (s *Service) refreshJournalMetrics() {
	if s.pst == nil || s.pst.journalMetrics == nil {
		return
	}
	m := s.pst.journalMetrics
	s.counters.JournalRecords.Store(m.Records.Load())
	s.counters.JournalBytes.Store(m.Bytes.Load())
	s.counters.JournalFsyncs.Store(m.Fsyncs.Load())
}

func (s *Service) walPath() string      { return filepath.Join(s.pst.dir, walFile) }
func (s *Service) snapshotPath() string { return filepath.Join(s.pst.dir, snapshotFile) }

// appendRecord journals rec through the commit stage. Callers hold the
// lock that owns rec's state change (the job's shard, or the coordinator
// for records whose WAL position must match arbiter order); the returned
// LSN is what waitDurable (outside every lock) keys on. An error leaves
// service state untouched, so callers that can abort cleanly (submit,
// report, delete) surface it to the client. The append-then-apply pair
// always sits inside one critical section of a lock the snapshot path
// acquires, so a snapshot can never claim (via LastLSN) to cover a record
// whose effect it does not contain.
func (s *Service) appendRecord(rec *record) (uint64, error) {
	payload, err := encodeRecord(rec)
	if err != nil {
		return 0, errf(500, "service: journal encode: %v", err)
	}
	lsn, err := s.pst.stage.append(payload)
	if err != nil {
		return 0, errf(503, "service: journal append: %v", err)
	}
	s.pst.sinceSnapshot.Add(1)
	return lsn, nil
}

// appendRecords journals a group of records as one contiguous WAL append
// (consecutive LSNs, one write(2) — see commitStage.appendAll), returning
// the first LSN. All-or-nothing: on error nothing was appended, so the
// caller may abort without applying any of the group. Like appendRecord,
// call while holding the lock that owns the records' WAL order.
func (s *Service) appendRecords(recs []*record) (uint64, error) {
	payloads := make([][]byte, len(recs))
	for i, rec := range recs {
		p, err := encodeRecord(rec)
		if err != nil {
			return 0, errf(500, "service: journal encode: %v", err)
		}
		payloads[i] = p
	}
	first, err := s.pst.stage.appendAll(payloads...)
	if err != nil {
		return 0, errf(503, "service: journal append: %v", err)
	}
	s.pst.sinceSnapshot.Add(int64(len(recs)))
	return first, nil
}

// mustAppend journals rec on a path that cannot abort (the state change
// already happened, or must happen — dispatch after NextFor, lease expiry
// past its deadline). A journal failure there is fail-stop: better to
// crash and recover from the last durable state than to let memory and
// log diverge. The one tolerated error is the closed writer — the
// shutdown path stops journaling before in-flight requests drain, and
// recovery re-derives whatever the lost records described (all open
// leases expire at startup).
func (s *Service) mustAppend(rec *record) uint64 {
	lsn, err := s.appendRecord(rec)
	if err != nil {
		if s.closed.Load() {
			return 0
		}
		panicf("service: write-ahead journal failed: %v", err)
	}
	return lsn
}

// waitDurable blocks until the record at lsn is durable per the configured
// fsync mode. Call without holding any service lock.
func (s *Service) waitDurable(lsn uint64) error {
	if s.pst == nil || lsn == 0 {
		return nil
	}
	if err := s.pst.w.WaitDurable(lsn); err != nil {
		return errf(503, "service: journal sync: %v", err)
	}
	return nil
}

// encodeRecord is json.Marshal(rec) with a submit's workload encoded by
// the reflection-free workload.AppendJSON; Workload is record's last
// field, so appending it after the rest yields the same bytes. The
// buffer is sized for the workload up front: a submit record is the
// whole workload, and growing it by doubling copies it several times.
func encodeRecord(rec *record) ([]byte, error) {
	if rec.Workload == nil {
		return json.Marshal(rec)
	}
	head := *rec
	head.Workload = nil
	h, err := json.Marshal(&head)
	if err != nil {
		return nil, err
	}
	const key = `,"workload":`
	b := make([]byte, 0, len(h)+len(key)+rec.Workload.JSONSizeHint())
	b = append(b, h[:len(h)-1]...)
	b = append(b, key...)
	b = rec.Workload.AppendJSON(b)
	return append(b, '}'), nil
}

// snapshotDue reports whether the snapshot cadence is met: at least
// SnapshotEvery records since the last capture, and a journal grown by
// at least the last snapshot's size since then. The second rule keeps
// replay work bounded by snapshot-load work; without it a large
// snapshot would be rewritten every few thousand small records.
func (s *Service) snapshotDue() bool {
	return s.pst.sinceSnapshot.Load() >= int64(s.cfg.SnapshotEvery) &&
		s.pst.journalMetrics.Bytes.Load() >= s.pst.dueBytes.Load()
}

// snapshotIfDue snapshots once the cadence is met. Callers hold no
// service lock. A request that finds a snapshot already under way
// returns at once rather than queue behind it: that snapshot serves.
func (s *Service) snapshotIfDue() {
	if s.pst == nil || !s.snapshotDue() {
		return
	}
	if !s.snapMu.TryLock() {
		return
	}
	defer s.snapMu.Unlock()
	if !s.snapshotDue() {
		return // another request snapshotted first
	}
	if err := s.snapshot(); err != nil {
		// The capture reset the record count, so the next attempt waits
		// a full SnapshotEvery.
		log.Printf("gridschedd: snapshot failed (journal keeps growing): %v", err)
	}
}

// snapshot writes a checkpoint of the whole service and compacts the log
// behind it. Only the capture stops the world; encoding, writing and
// compaction run with no service lock held, while dispatch goes on.
// Callers hold snapMu.
func (s *Service) snapshot() error {
	snap, mark, journalBytes := s.capture()
	s.snapshotStep("captured")
	start := time.Now()
	n, err := journal.WriteFileAtomicFunc(s.snapshotPath(), func(w io.Writer) error {
		return writeSnapshot(w, snap)
	})
	if err == nil {
		s.snapshotStep("durable")
		err = s.pst.w.CompactThrough(mark)
	}
	s.counters.ObserveSnapshotWrite(time.Since(start).Nanoseconds())
	if err != nil {
		return err
	}
	s.pst.dueBytes.Store(journalBytes + n)
	s.counters.Snapshots.Add(1)
	s.counters.SnapshotBytes.Store(n)
	return nil
}

// snapshotStep runs the test hook, if any, at a named snapshot step.
func (s *Service) snapshotStep(name string) {
	if s.pst.hook != nil {
		s.pst.hook(name)
	}
}

// capture is the snapshot's stop-the-world step. Under every shard plus
// the coordinator (lockAll) no append can be in flight, so the log mark
// it takes names a frozen position whose every record's effect the
// returned state contains. It copies only what later mutation could
// change: job metadata and counters, the tenant table, worker telemetry.
// The heavy parts are shared, not copied: a workload is immutable, and a
// ledger is append-only, so its prefix j.ledger[:n:n] never changes. It
// also returns the journal byte count at the mark, and restarts the
// record count of the snapshot cadence.
func (s *Service) capture() (*snapshot, journal.Mark, int64) {
	start := time.Now()
	s.lockAll()
	defer func() {
		s.unlockAll()
		s.counters.ObserveSnapshotPause(time.Since(start).Nanoseconds())
	}()
	mark := s.pst.w.Mark()
	snap := &snapshot{
		Version:        snapshotVersion,
		Seq:            s.seq.Load(),
		PartitionIndex: s.cfg.PartitionIndex,
		PartitionCount: s.cfg.PartitionCount,
		LastLSN:        mark.LSN,
		Carry:          s.pst.carry,
		VTime:          s.coord.vtime,
	}
	tenantNames := make([]string, 0, len(s.coord.tenants))
	for name := range s.coord.tenants {
		tenantNames = append(tenantNames, name)
	}
	sort.Strings(tenantNames)
	for _, name := range tenantNames {
		t := s.coord.tenants[name]
		if t.quota == 0 && t.dispatches == 0 {
			continue // nothing durable to say about this tenant
		}
		snap.Tenants = append(snap.Tenants, snapTenant{
			Name: name, Quota: t.quota, Dispatches: t.dispatches,
		})
	}
	var jobs []*job
	for _, sh := range s.shards {
		for _, j := range sh.jobs {
			jobs = append(jobs, j)
		}
	}
	sort.Slice(jobs, func(i, k int) bool { return jobs[i].seq < jobs[k].seq }) // submission order
	for _, j := range jobs {
		sj := snapJob{
			ID:         j.id,
			Name:       j.name,
			Algorithm:  j.algorithm,
			Seed:       j.seed,
			Submission: j.submissionID,
			State:      j.state,
			Tasks:      j.tasks,
			Submitted:  j.submitted.UnixMilli(),
			Tenant:     j.tenant,
			Weight:     j.weight,
			Requires:   j.requires,
			Deadline:   j.deadlineMs,
		}
		if !j.finished.IsZero() {
			sj.Finished = j.finished.UnixMilli()
		}
		if j.state == api.JobCompleted {
			sj.Dispatched, sj.Completed, sj.Failed = j.dispatched, j.completed, j.failed
			sj.Cancelled, sj.Expired, sj.Transfers = j.cancelled, j.expired, j.transfers
			sj.Speculated = j.speculated
		} else {
			// Running jobs re-derive speculated (and the rest of the
			// counters' replayable parts) from the ledger.
			sj.Workload = j.w
			sj.Ledger = j.ledger[:len(j.ledger):len(j.ledger)]
			sj.Fair = j.fair
		}
		snap.Jobs = append(snap.Jobs, sj)
	}
	snap.Workers = s.tel.snapshotWorkers()
	s.pst.sinceSnapshot.Store(0)
	return snap, mark, s.pst.journalMetrics.Bytes.Load()
}

// snapChunk is how many encoded bytes writeSnapshot gathers before it
// writes them on.
const snapChunk = 32 << 10

// writeSnapshot streams the JSON encoding of snap to out: the bytes of
// json.Marshal(snap), built without the whole document in memory.
// Workloads and ledgers, nearly all of a snapshot, go through
// reflection-free encoders; they are the last fields of their structs,
// and Jobs the last of snapshot's, so everything before them can be
// marshaled as usual with its closing brace cut off.
func writeSnapshot(out io.Writer, snap *snapshot) error {
	head := *snap
	head.Jobs = nil
	b, err := json.Marshal(&head)
	if err != nil {
		return err
	}
	b = b[:len(b)-len("null}")] // reopen at `"jobs":`
	if snap.Jobs == nil {
		_, err = out.Write(append(b, "null}"...))
		return err
	}
	b = append(b, '[')
	for i := range snap.Jobs {
		if i > 0 {
			b = append(b, ',')
		}
		if b, err = appendSnapJob(b, out, &snap.Jobs[i]); err != nil {
			return err
		}
	}
	_, err = out.Write(append(b, "]}"...))
	return err
}

// appendSnapJob appends the encoding of sj to b, writing b to out and
// restarting it whenever the job's workload or ledger makes it large.
func appendSnapJob(b []byte, out io.Writer, sj *snapJob) ([]byte, error) {
	light := *sj
	light.Workload, light.Ledger = nil, nil
	lb, err := json.Marshal(&light)
	if err != nil {
		return nil, err
	}
	b = append(b, lb[:len(lb)-1]...)
	if sj.Workload != nil {
		b = append(b, `,"workload":`...)
		if _, err := out.Write(b); err != nil {
			return nil, err
		}
		if err := sj.Workload.WriteJSON(out); err != nil {
			return nil, err
		}
		b = b[:0]
	}
	if len(sj.Ledger) > 0 {
		b = append(b, `,"ledger":[`...)
		for i, e := range sj.Ledger {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendLedgerRec(b, e)
			if len(b) >= snapChunk {
				if _, err := out.Write(b); err != nil {
					return nil, err
				}
				b = b[:0]
			}
		}
		b = append(b, ']')
	}
	return append(b, '}'), nil
}

// appendLedgerRec appends e as encoding/json would encode a ledgerRec.
func appendLedgerRec(b []byte, e ledgerRec) []byte {
	b = append(b, `{"op":`...)
	b = strconv.AppendUint(b, uint64(e.Op), 10)
	b = append(b, `,"t":`...)
	b = strconv.AppendInt(b, int64(e.Task), 10)
	b = append(b, `,"s":`...)
	b = strconv.AppendInt(b, int64(e.Site), 10)
	b = append(b, `,"w":`...)
	b = strconv.AppendInt(b, int64(e.Worker), 10)
	if e.Ts != 0 {
		b = append(b, `,"ms":`...)
		b = strconv.AppendInt(b, e.Ts, 10)
	}
	return append(b, '}')
}

// replayAssignSched drives sched into the post-dispatch state for (id, at):
// through ReplayAssign where the scheduler provides one, otherwise by
// re-asking NextFor and verifying the decision — exact for the worker-
// centric schedulers, whose NextFor mutates state (including the
// ChooseTask(n) RNG) only when it assigns. A mismatch means the journal
// and the scheduler disagree, which recovery treats as corruption.
func replayAssignSched(sched core.Scheduler, id workload.TaskID, at core.WorkerRef) error {
	if r, ok := sched.(core.Replayer); ok {
		return r.ReplayAssign(id, at)
	}
	task, status := sched.NextFor(at)
	if status != core.Assigned {
		return fmt.Errorf("replay: scheduler returned %v for task %d at %+v", status, id, at)
	}
	if task.ID != id {
		return fmt.Errorf("replay: scheduler assigned task %d, journal says %d (at %+v)", task.ID, id, at)
	}
	return nil
}
