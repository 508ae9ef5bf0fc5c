package service_test

import (
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"gridsched"
	"gridsched/internal/journal"
	"gridsched/internal/service"
	"gridsched/internal/service/api"
	"gridsched/internal/workload"
)

// Crash windows of the snapshot path. A snapshot captures the state under
// the locks, releases them, writes the file and only then compacts the
// log; appends go on throughout. Each test crashes (or appends) inside
// one window and checks the north-star properties across the restart:
// every task completes exactly once, and the recovered service dispatches
// exactly the sequence an uninterrupted one would.

const (
	crashTasks = 80
	crashSeed  = 99
)

// referenceSequence is the dispatch order of an uninterrupted in-memory
// run of the crash tests' job.
func referenceSequence(t *testing.T, w *workload.Workload) []workload.TaskID {
	t.Helper()
	ref := newService(t, service.Config{NewScheduler: gridsched.SchedulerFactory()})
	if _, err := ref.SubmitByName("ref", "combined.2", w, crashSeed, ""); err != nil {
		t.Fatal(err)
	}
	return pullSequence(t, ref, -1)
}

// snapshotOnlyConfig snapshots only when the test asks.
func snapshotOnlyConfig(dir string) service.Config {
	cfg := durableConfig(dir)
	cfg.SnapshotEvery = 1 << 30
	return cfg
}

// snapshotLSN reads the LSN the snapshot in dir covers.
func snapshotLSN(t *testing.T, dir string) uint64 {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(dir, "snapshot.json"))
	if err != nil {
		t.Fatal(err)
	}
	var h struct {
		LastLSN uint64 `json:"lastLsn"`
	}
	if err := json.Unmarshal(data, &h); err != nil {
		t.Fatal(err)
	}
	return h.LastLSN
}

// firstLogLSN is the LSN of the first record the log in dir holds (0 if
// it holds none).
func firstLogLSN(t *testing.T, dir string) uint64 {
	t.Helper()
	var first uint64
	if _, err := journal.ReadLog(filepath.Join(dir, "wal.log"), 0, func(lsn uint64, _ []byte) error {
		if first == 0 {
			first = lsn
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return first
}

// recoverAndFinish restarts on dir, checks the completions that survived
// and drains the job, returning the rest of the dispatch sequence.
func recoverAndFinish(t *testing.T, dir, jobID string, completed int) []workload.TaskID {
	t.Helper()
	r, err := service.New(snapshotOnlyConfig(dir))
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	defer r.Close()
	if stale, _ := filepath.Glob(filepath.Join(dir, "*.tmp*")); len(stale) > 0 {
		t.Fatalf("recovery left temp files behind: %v", stale)
	}
	st, err := r.JobStatus(jobID)
	if err != nil {
		t.Fatal(err)
	}
	if st.Completed != completed {
		t.Fatalf("recovered %d completions, want %d", st.Completed, completed)
	}
	rest := pullSequence(t, r, -1)
	if st, _ = r.JobStatus(jobID); st.State != api.JobCompleted || st.Completed != crashTasks {
		t.Fatalf("after draining: state %s, %d of %d completed", st.State, st.Completed, crashTasks)
	}
	return rest
}

// checkSequence compares the dispatch order across the crash with the
// uninterrupted one; equal sequences also mean no task ran twice.
func checkSequence(t *testing.T, got, want []workload.TaskID) {
	t.Helper()
	if !slices.Equal(got, want) {
		t.Fatalf("dispatch across the crash differs from the uninterrupted run:\n got %v\nwant %v", got, want)
	}
}

// TestSnapshotCrashAfterDurableBeforeCompaction: the process dies once
// the snapshot file is durable but before the log is compacted. Recovery
// finds the new snapshot beside the full log and must skip the records
// the snapshot already covers.
func TestSnapshotCrashAfterDurableBeforeCompaction(t *testing.T) {
	w := syntheticWorkload(crashTasks, 4)
	want := referenceSequence(t, w)

	dir := t.TempDir()
	s, err := service.New(snapshotOnlyConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	jobID, err := s.SubmitByName("crashy", "combined.2", w, crashSeed, "")
	if err != nil {
		t.Fatal(err)
	}
	got := pullSequence(t, s, 30)
	s.SetSnapshotHookForTest(func(step string) {
		if step == "durable" {
			s.CrashForTest()
		}
	})
	if err := s.SnapshotForTest(); err == nil {
		t.Fatal("compaction succeeded on a crashed service")
	}
	if first := firstLogLSN(t, dir); first != 1 {
		t.Fatalf("log starts at lsn %d; the crash came before compaction, so it must start at 1", first)
	}
	if snapshotLSN(t, dir) == 0 {
		t.Fatal("the snapshot did not reach the disk")
	}
	got = append(got, recoverAndFinish(t, dir, jobID, 30)...)
	checkSequence(t, got, want)
}

// TestSnapshotCrashDuringCompaction: the process dies while the log
// suffix is being copied. Until the rename the old log stays in place, so
// the disk holds the new snapshot, the full log and a torn temp copy of
// the suffix — exactly what this test leaves before crashing.
func TestSnapshotCrashDuringCompaction(t *testing.T) {
	w := syntheticWorkload(crashTasks, 4)
	want := referenceSequence(t, w)

	dir := t.TempDir()
	s, err := service.New(snapshotOnlyConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	jobID, err := s.SubmitByName("crashy", "combined.2", w, crashSeed, "")
	if err != nil {
		t.Fatal(err)
	}
	got := pullSequence(t, s, 25)
	s.SetSnapshotHookForTest(func(step string) {
		switch step {
		case "captured":
			// Records past the mark, which the compaction copies.
			got = append(got, pullSequence(t, s, 5)...)
		case "durable":
			log, err := os.ReadFile(filepath.Join(dir, "wal.log"))
			if err != nil {
				t.Fatal(err)
			}
			// A torn copy: the log magic and part of the first frames.
			torn := log[:len(log)/2+3]
			if err := os.WriteFile(filepath.Join(dir, "wal.log.tmp0451"), torn, 0o600); err != nil {
				t.Fatal(err)
			}
			s.CrashForTest()
		}
	})
	if err := s.SnapshotForTest(); err == nil {
		t.Fatal("compaction succeeded on a crashed service")
	}
	got = append(got, recoverAndFinish(t, dir, jobID, 30)...)
	checkSequence(t, got, want)
}

// TestSnapshotAppendsBetweenCaptureAndCompaction: dispatches and reports
// that land after the capture — while the snapshot is written, and after
// it is durable but before compaction — are in no snapshot. Compaction
// must keep them in the log, and recovery must replay them on top of the
// snapshot.
func TestSnapshotAppendsBetweenCaptureAndCompaction(t *testing.T) {
	w := syntheticWorkload(crashTasks, 4)
	want := referenceSequence(t, w)

	dir := t.TempDir()
	s, err := service.New(snapshotOnlyConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	jobID, err := s.SubmitByName("crashy", "combined.2", w, crashSeed, "")
	if err != nil {
		t.Fatal(err)
	}
	got := pullSequence(t, s, 20)
	var lastBeforeCompaction uint64
	s.SetSnapshotHookForTest(func(step string) {
		switch step {
		case "captured":
			got = append(got, pullSequence(t, s, 6)...)
		case "durable":
			got = append(got, pullSequence(t, s, 4)...)
			lastBeforeCompaction = s.ReplicationLastLSN()
		}
	})
	if err := s.SnapshotForTest(); err != nil {
		t.Fatal(err)
	}
	mark := snapshotLSN(t, dir)
	if mark == 0 || mark >= lastBeforeCompaction {
		t.Fatalf("snapshot covers lsn %d; the appends after the capture end at %d", mark, lastBeforeCompaction)
	}
	if first := firstLogLSN(t, dir); first != mark+1 {
		t.Fatalf("compacted log starts at lsn %d, want %d (just past the snapshot)", first, mark+1)
	}
	got = append(got, pullSequence(t, s, 5)...)
	s.CrashForTest()
	got = append(got, recoverAndFinish(t, dir, jobID, 35)...)
	checkSequence(t, got, want)
}

// parentScript is the traffic behind testdata/parent-datadir: a job
// driven to completion, then a combined.2 job under a quota, 12 tasks
// done before a snapshot and 6 after. The data dir was written by the
// commit before snapshots were streamed and the log compacted by suffix:
// its snapshot lists jobs before workers and its log was truncated at
// the snapshot, then the process crashed.
func parentScript(t *testing.T, s *service.Service, snap func()) {
	t.Helper()
	if _, err := s.SubmitJob(api.SubmitJobRequest{Name: "done", Algorithm: "workqueue",
		Workload: syntheticWorkload(6, 2), Tenant: "ta", Weight: 2}); err != nil {
		t.Fatal(err)
	}
	pullSequence(t, s, -1)
	if _, err := s.SubmitJob(api.SubmitJobRequest{Name: "running", Algorithm: "combined.2",
		Workload: syntheticWorkload(40, 3), Seed: 21, Tenant: "tb", SubmissionID: "parent-sub"}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.SetTenantQuota("tb", 2); err != nil {
		t.Fatal(err)
	}
	pullSequence(t, s, 12)
	snap()
	pullSequence(t, s, 6)
}

// TestParentDataDirRecovers: a data dir written by the previous snapshot
// code recovers under this one — same completions, same tenant state —
// and goes on to dispatch exactly what an uninterrupted run would.
func TestParentDataDirRecovers(t *testing.T) {
	ref := newService(t, durableConfig(""))
	parentScript(t, ref, func() {})
	want := pullSequence(t, ref, -1)

	dir := t.TempDir()
	for _, name := range []string{"snapshot.json", "wal.log"} {
		data, err := os.ReadFile(filepath.Join("testdata", "parent-datadir", name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	s, err := service.New(snapshotOnlyConfig(dir))
	if err != nil {
		t.Fatalf("recovering the parent data dir: %v", err)
	}
	defer s.Close()
	byName := map[string]api.JobStatus{}
	for _, st := range s.Jobs() {
		byName[st.Name] = st
	}
	if st := byName["done"]; st.State != api.JobCompleted || st.Completed != 6 {
		t.Fatalf("completed job: %+v", st)
	}
	if st := byName["running"]; st.State != api.JobRunning || st.Completed != 18 {
		t.Fatalf("running job: %+v", st)
	}
	if id, err := s.SubmitByName("again", "combined.2", syntheticWorkload(40, 3), 21, "parent-sub"); err != nil || id != byName["running"].ID {
		t.Fatalf("resubmission resolved to %q (err %v), want %q", id, err, byName["running"].ID)
	}
	quota := -1
	for _, ts := range s.Tenants() {
		if ts.Tenant == "tb" {
			quota = ts.MaxInFlight
		}
	}
	if quota != 2 {
		t.Fatalf("tenant tb quota %d after recovery, want 2", quota)
	}
	checkSequence(t, pullSequence(t, s, -1), want)
}
