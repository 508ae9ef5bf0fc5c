package service

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"testing"
	"time"

	"gridsched/internal/core"
	"gridsched/internal/journal"
	"gridsched/internal/service/api"
	"gridsched/internal/storage"
	"gridsched/internal/workload"
)

// streamTestService builds a journaled service holding a completed job
// and two running ones with ledgers, tenants, a quota override, required
// tags and a deadline: every branch of the snapshot encoder.
func streamTestService(t *testing.T) *Service {
	t.Helper()
	cfg := coaddStreamConfig()
	w, err := workload.GenerateCoadd(cfg)
	if err != nil {
		t.Fatal(err)
	}
	w.Name = `coadd "<slice>" & Ωmega`
	small := &workload.Workload{Name: "small", NumFiles: 4, Tasks: []workload.Task{
		{ID: 0, Files: []workload.FileID{0, 1}}, {ID: 1, Files: []workload.FileID{2, 3}},
	}}
	s, err := New(Config{
		Topology:      Topology{Sites: 2, WorkersPerSite: 2, CapacityFiles: 400, Policy: storage.LRU},
		NewScheduler:  streamTestFactory,
		DataDir:       t.TempDir(),
		Fsync:         journal.SyncNever,
		SnapshotEvery: 1 << 30,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	submit := func(req api.SubmitJobRequest) string {
		t.Helper()
		id, err := s.SubmitJob(req)
		if err != nil {
			t.Fatal(err)
		}
		return id
	}
	submit(api.SubmitJobRequest{Name: "done", Algorithm: "workqueue", Workload: small, Tenant: "t1", Weight: 2})
	submit(api.SubmitJobRequest{Name: "coadd", Algorithm: "workqueue", Workload: w, Seed: 5, SubmissionID: "sub-1", Tenant: "t2"})
	submit(api.SubmitJobRequest{Name: "tagged", Algorithm: "workqueue", Workload: small, Requires: []string{"gpu"},
		DeadlineMillis: time.Now().Add(time.Hour).UnixMilli()})
	if _, err := s.SetTenantQuota("t2", 3); err != nil {
		t.Fatal(err)
	}
	reg, err := s.Register(1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		resp, err := s.Pull(nil, reg.WorkerID, 0)
		if err != nil {
			t.Fatal(err)
		}
		if resp.Status != api.StatusAssigned {
			break
		}
		outcome := api.OutcomeSuccess
		if i%5 == 4 {
			outcome = api.OutcomeFailure
		}
		if _, err := s.Report(resp.Assignment.ID, reg.WorkerID, outcome); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

// coaddStreamConfig is a Coadd slice small enough for a unit test.
func coaddStreamConfig() workload.CoaddConfig {
	cfg := workload.CoaddSmallConfig(2)
	cfg.Tasks = 150
	return cfg
}

func streamTestFactory(algorithm string, w *workload.Workload, topo Topology, seed int64) (core.Scheduler, error) {
	return core.NewWorkqueue(w), nil
}

// TestStreamedSnapshotMatchesMarshal: the streamed snapshot is byte for
// byte json.Marshal of the capture, and so decodes to the same value.
func TestStreamedSnapshotMatchesMarshal(t *testing.T) {
	s := streamTestService(t)
	snap, _, _ := s.capture()
	var running, completed int
	for _, sj := range snap.Jobs {
		if sj.Workload != nil && len(sj.Ledger) > 0 {
			running++
		}
		if sj.State == api.JobCompleted {
			completed++
		}
	}
	if running == 0 || completed == 0 || len(snap.Tenants) == 0 || len(snap.Workers) == 0 {
		t.Fatalf("capture misses a branch: %d running with ledgers, %d completed, %d tenants, %d workers",
			running, completed, len(snap.Tenants), len(snap.Workers))
	}
	want, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := writeSnapshot(&got, snap); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("streamed snapshot differs from json.Marshal:\n got %.300s\nwant %.300s", got.Bytes(), want)
	}
	var a, b snapshot
	if err := json.Unmarshal(got.Bytes(), &a); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(want, &b); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("streamed snapshot decodes to a different value")
	}

	// The file the snapshot path writes is the same stream.
	if err := s.SnapshotForTest(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(s.snapshotPath())
	if err != nil {
		t.Fatal(err)
	}
	if got := s.counters.SnapshotBytes.Load(); got != int64(len(data)) {
		t.Fatalf("gridsched_snapshot_bytes = %d, file holds %d", got, len(data))
	}
	var onDisk snapshot
	if err := json.Unmarshal(data, &onDisk); err != nil {
		t.Fatal(err)
	}
	if onDisk.LastLSN != s.pst.w.LastLSN() || len(onDisk.Jobs) != len(snap.Jobs) {
		t.Fatalf("snapshot on disk covers lsn %d with %d jobs, want %d with %d",
			onDisk.LastLSN, len(onDisk.Jobs), s.pst.w.LastLSN(), len(snap.Jobs))
	}
}

// TestEmptySnapshotMatchesMarshal covers a service with no jobs, whose
// job list encodes as null.
func TestEmptySnapshotMatchesMarshal(t *testing.T) {
	snap := &snapshot{Version: snapshotVersion, Seq: 7, LastLSN: 3}
	want, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := writeSnapshot(&got, snap); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("got %s, want %s", got.Bytes(), want)
	}
}

// TestEncodeRecordMatchesMarshal: journal records keep the bytes
// encoding/json gave them, the submit record's workload included.
func TestEncodeRecordMatchesMarshal(t *testing.T) {
	w, err := workload.GenerateCoadd(coaddStreamConfig())
	if err != nil {
		t.Fatal(err)
	}
	w.Name = "coadd <&> \u2028"
	for _, rec := range []*record{
		{Op: opSubmit, Ts: 1700000000000, Job: "j1", Name: "n\"ame", Algorithm: "combined.2", Seed: -3,
			Submission: "s1", Workload: w, Tenant: "t", Weight: 4, Requires: []string{"gpu", "ssd"}, Deadline: 99},
		{Op: opSubmit, Ts: 1, Job: "j2", Workload: &workload.Workload{Name: "empty", NumFiles: 1}},
		{Op: opDispatch, Ts: 2, Job: "j1", Task: 7, Site: 1, Worker: 3, Assignment: "a9", Spec: true},
		{Op: opReport, Ts: 3, Job: "j1", Task: 7, Outcome: "success"},
	} {
		want, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		got, err := encodeRecord(rec)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s record:\n got %.300s\nwant %.300s", rec.Op, got, want)
		}
	}
}

func TestAppendLedgerRecMatchesMarshal(t *testing.T) {
	for _, e := range []ledgerRec{
		{},
		{Op: ledgerSpecDispatch, Task: 12000, Site: 1, Worker: 31, Ts: 1700000000123},
		{Op: ledgerExpire, Task: -1, Site: -2, Worker: -3, Ts: -4},
	} {
		want, err := json.Marshal(e)
		if err != nil {
			t.Fatal(err)
		}
		if got := appendLedgerRec(nil, e); !bytes.Equal(got, want) {
			t.Errorf("got %s, want %s", got, want)
		}
	}
}
