package main

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"gridsched"
	"gridsched/internal/experiment"
	"gridsched/internal/grid"
	"gridsched/internal/middleware"
	"gridsched/internal/partition"
	"gridsched/internal/service"
	"gridsched/internal/service/api"
	"gridsched/internal/service/client"
	"gridsched/internal/storage"
	"gridsched/internal/workload"
)

// Workload sizes. Every load is sized for a 2-core machine: at most two
// streaming workers, and one goroutine for the open-loop schedule.
const (
	// coadd-direct: one round drains this many Coadd tasks through two
	// sites at the paper's tightest store capacity.
	coaddTasks    = 12000
	coaddCapacity = 3000
	coaddDepth    = 16

	// tiny-routed: each of the two partitions drains one job of this
	// many one-file tasks, at the pipeline depth of the wire benchmarks.
	tinyTasks = 25000
	tinyFiles = 512
	tinyDepth = 32

	// tenant-mix: jobs are Coadd slices submitted at a fixed rate, for a
	// fixed number of submits per round. A 2-core machine sustains about
	// 70 jobs/s; at 30 a third of the CPU stolen by the hypervisor tipped
	// it into a growing backlog, so the rate leaves room for that.
	mixRate       = 20 // jobs per second
	mixJobCount   = 100
	mixSliceTasks = 256
	mixTraceTasks = 6000
	mixDepth      = 16

	// paper-figure4: the Figure 4 capacity sweep at paper scale.
	figTasks = 6000

	roundTimeout = 60 * time.Second
)

// mixTenants are tenant-mix's tenants and their fair-share weights.
var mixTenants = []struct {
	name   string
	weight int
}{{"alpha", 3}, {"beta", 2}, {"gamma", 1}}

// env is what every round of one run shares: the seed-derived inputs'
// seeds and the directory for data dirs.
type env struct {
	seed    int64
	dataDir string
	rounds  int // rounds started so far, for unique data dirs
}

// subSeed derives an independent seed for one purpose from the run seed,
// so each input varies with the seed on its own stream.
func (e *env) subSeed(purpose int64) int64 {
	return rand.New(rand.NewSource(e.seed*7919 + purpose)).Int63()
}

func (e *env) newDataDir() (string, error) {
	e.rounds++
	dir := filepath.Join(e.dataDir, fmt.Sprintf("round-%d", e.rounds))
	return dir, os.MkdirAll(dir, 0o755)
}

// roundResult is everything one round measured.
type roundResult struct {
	setup    time.Duration // round start until the first submit (or simulation)
	measured time.Duration // first submit until the last report ack (or sweep end)

	tasks     int64 // tasks completed in the measured phase
	paced     bool  // the measured phase ran on an open-loop schedule
	transfers int64 // files staged into site stores

	acks       samples // ms: report round trips, submit acks from due time, or the mean simulation run
	reportAcks samples // ms: batched report round trips
	turnaround samples // ms: per job or per round, as endToEndMetrics lists
	reads      samples // ms: job-status reads
	late       samples // ms: how late the open loop sent each submit

	attempted, failed int64
	problems          []string

	expo                                  exposition // summed /metrics of every daemon
	frames, emptyFrames, batches, reports int64
	wireBytes                             int64

	sims         int
	makespans    []float64 // minutes, per simulation in sweep order
	simTransfers []int64
	kernelEvents uint64

	cpu                   time.Duration // process CPU time over the whole round
	stealPct              float64       // hypervisor steal over the whole round
	allocBytes, gcPauseNs uint64
	gcCycles              uint32
}

func (r *roundResult) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// fail records an operation that failed; the round continues only where
// the caller says so.
func (r *roundResult) fail(what string, err error) {
	r.failed++
	r.problem("%s: %v", what, err)
}

type workloadDef struct {
	name  string
	round func(ctx context.Context, e *env, tr *tracer) *roundResult
}

// The workloads use the same layers differently; BENCHMARK.json gives
// each one's reason in a line.
var workloads = []workloadDef{
	// The paper's own workload on the production path: ingress with
	// auth, one fsync=batch daemon, two sites at the tightest capacity.
	// The scheduler core is about 40% of its wall time.
	{"coadd-direct", coaddDirect},
	// One-file tasks through the router: the core is about 1.5% of wall
	// time; the router hop, codec, frames, report commit and journal
	// are the rest.
	{"tiny-routed", tinyRouted},
	// Open loop: many small jobs, each with its own scheduler and store,
	// arbitrated across tenants, with reads beside writes.
	{"tenant-mix", tenantMix},
	// The only workload that runs internal/grid, netsim, sim and topology.
	{"paper-figure4", paperFigure4},
}

// serviceRound holds what the service workloads share per round.
type serviceRound struct {
	r       *roundResult
	daemons []*daemon
	router  *router
	hc      *http.Client
	bc      *byteCounter
	fleet   fleet
	dirs    []string
}

func newServiceRound(tr *tracer) *serviceRound {
	s := &serviceRound{r: &roundResult{expo: exposition{}}}
	if tr != nil {
		s.bc = &byteCounter{}
	}
	s.hc = httpClient(s.bc)
	return s
}

func (s *serviceRound) startDaemon(e *env, o daemonOpts, tr *tracer) (*daemon, error) {
	dir, err := e.newDataDir()
	if err != nil {
		return nil, err
	}
	s.dirs = append(s.dirs, dir)
	o.dataDir = dir
	d, err := startDaemon(o, tr)
	if err != nil {
		return nil, err
	}
	s.daemons = append(s.daemons, d)
	return d, nil
}

// scrape reads every daemon's /metrics and checks the invariants it
// carries: no stale report and no expired lease.
func (s *serviceRound) scrape(ctx context.Context) {
	for i, d := range s.daemons {
		ex, err := scrape(ctx, s.hc, d.url)
		if err != nil {
			s.r.fail(fmt.Sprintf("scrape daemon %d", i), err)
			continue
		}
		if n := ex.sum("gridsched_stale_reports_total"); n != 0 {
			s.r.failed++
			s.r.problem("daemon %d: %v stale reports", i, n)
		}
		if n := ex.sum("gridsched_leases_expired_total"); n != 0 {
			s.r.failed++
			s.r.problem("daemon %d: %v leases expired", i, n)
		}
		s.r.expo.add(ex)
	}
}

// checkJob verifies a drained job: completed == dispatched == tasks.
func (s *serviceRound) checkJob(ctx context.Context, cl *client.Client, jobID string, tasks int) {
	s.r.attempted++
	st, err := cl.Job(ctx, jobID)
	if err != nil {
		s.r.fail("job status "+jobID, err)
		return
	}
	if st.State != api.JobCompleted || st.Completed != tasks || st.Dispatched != tasks {
		s.r.failed++
		s.r.problem("job %s: state %s, completed %d, dispatched %d, want %d", jobID, st.State, st.Completed, st.Dispatched, tasks)
	}
	s.r.transfers += st.Transfers
}

// close tears the round down. The order matters: an HTTP server's
// Shutdown waits out open streams and any connection that never carried
// a request, so the clients' connections go first, then the services
// (which ends their lease streams, and so the router's proxied ones),
// then the router, then the daemons' servers.
func (s *serviceRound) close() {
	s.fleet.closeStreams()
	s.hc.CloseIdleConnections()
	for _, d := range s.daemons {
		d.svc.Close()
	}
	if s.router != nil {
		if err := s.router.close(); err != nil {
			s.r.problem("router shutdown: %v", err)
		}
	}
	for i, d := range s.daemons {
		if err := d.server.close(); err != nil {
			s.r.problem("daemon %d shutdown: %v", i, err)
		}
	}
	for _, dir := range s.dirs {
		_ = os.RemoveAll(dir) // temporary; the run directory is removed at exit too
	}
	if s.bc != nil {
		s.r.wireBytes = s.bc.n.Load()
	}
}

// drain submits the round's closed-loop jobs, waits until the fleet has
// reported every task, and checks each job.
func (s *serviceRound) drain(ctx context.Context, cl *client.Client, reqs []api.SubmitJobRequest, tr *tracer) {
	total := 0
	for _, req := range reqs {
		total += len(req.Workload.Tasks)
	}
	s.fleet.start(ctx, int64(total))
	begin := time.Now()
	var ids []string
	for _, req := range reqs {
		s.r.attempted++
		start := tr.start()
		id, err := cl.SubmitJobIdempotent(ctx, req)
		tr.clientSpan("submit", start)
		if err != nil {
			s.r.fail("submit "+req.Name, err)
			s.fleet.finish()
			break
		}
		ids = append(ids, id)
	}
	if err := s.fleet.wait(roundTimeout); err != nil {
		s.r.fail("drain", err)
	}
	s.r.measured = s.fleet.end.Sub(begin)
	s.r.turnaround.addDur(s.r.measured, time.Millisecond)
	s.fleet.collect(s.r)
	s.r.acks = s.r.reportAcks
	s.r.tasks = s.fleet.completed.Load()
	for i, id := range ids {
		s.checkJob(ctx, cl, id, len(reqs[i].Workload.Tasks))
	}
	s.scrape(ctx)
}

func benchTokens(extra map[string]middleware.Principal) *middleware.TokenStore {
	tokens := map[string]middleware.Principal{"worker-token": {Tenant: "workers"}}
	for k, v := range extra {
		tokens[k] = v
	}
	return middleware.NewTokenStore(tokens)
}

func coaddDirect(ctx context.Context, e *env, tr *tracer) *roundResult {
	s := newServiceRound(tr)
	defer s.close()
	begin := time.Now()
	w, err := gridsched.NewCoaddWorkload(e.subSeed(1), coaddTasks)
	if err != nil {
		s.r.fail("coadd trace", err)
		return s.r
	}
	d, err := s.startDaemon(e, daemonOpts{
		topo:   service.Topology{Sites: 2, WorkersPerSite: 1, CapacityFiles: coaddCapacity},
		tokens: benchTokens(map[string]middleware.Principal{"coadd-token": {Tenant: "coadd"}}),
	}, tr)
	if err != nil {
		s.r.fail("start daemon", err)
		return s.r
	}
	for site := 0; site < 2; site++ {
		s.r.attempted++
		wk, err := openWorker(ctx, newClient(d.url, "worker-token", s.hc), &site, coaddDepth, tr)
		if err != nil {
			s.r.fail("worker", err)
			return s.r
		}
		s.fleet.workers = append(s.fleet.workers, wk)
	}
	s.r.setup = time.Since(begin)
	s.drain(ctx, newClient(d.url, "coadd-token", s.hc), []api.SubmitJobRequest{{
		Name: "coadd", Algorithm: "combined.2", Seed: e.subSeed(2), Workload: w,
		SubmissionID: fmt.Sprintf("coadd-%d", e.seed),
	}}, tr)
	return s.r
}

// tinyWorkload is n one-file tasks over a small file pool, so staging
// cost is constant and the service path dominates.
func tinyWorkload(n int) *workload.Workload {
	w := &workload.Workload{Name: "tiny", NumFiles: tinyFiles, Tasks: make([]workload.Task, n)}
	for i := range w.Tasks {
		w.Tasks[i] = workload.Task{ID: workload.TaskID(i), Files: []workload.FileID{workload.FileID(i % tinyFiles)}}
	}
	return w
}

// submissionFor returns a submission id the router places on partition
// part of parts.
func submissionFor(prefix string, part, parts int) string {
	for k := 0; ; k++ {
		id := fmt.Sprintf("%s-%d", prefix, k)
		if partition.SubmitOwner(id, parts) == part {
			return id
		}
	}
}

func tinyRouted(ctx context.Context, e *env, tr *tracer) *roundResult {
	const parts = 2
	s := newServiceRound(tr)
	defer s.close()
	begin := time.Now()
	w := tinyWorkload(tinyTasks)
	for p := 0; p < parts; p++ {
		if _, err := s.startDaemon(e, daemonOpts{
			topo: service.Topology{Sites: 1, WorkersPerSite: 1, CapacityFiles: 2 * tinyFiles},
			part: p, parts: parts,
		}, tr); err != nil {
			s.r.fail("start partition", err)
			return s.r
		}
	}
	router, err := startRouter(s.daemons, tr)
	if err != nil {
		s.r.fail("start router", err)
		return s.r
	}
	s.router = router
	owners := map[int]bool{}
	for i := 0; i < parts; i++ {
		s.r.attempted++
		wk, err := openWorker(ctx, newClient(router.url, "", s.hc), nil, tinyDepth, tr)
		if err != nil {
			s.r.fail("worker", err)
			return s.r
		}
		s.fleet.workers = append(s.fleet.workers, wk)
		owner, _ := partition.Owner(wk.id, parts)
		owners[owner] = true
	}
	if len(owners) != parts {
		s.r.failed++
		s.r.problem("router placed both workers on one partition")
		return s.r
	}
	s.r.setup = time.Since(begin)
	var reqs []api.SubmitJobRequest
	for p := 0; p < parts; p++ {
		reqs = append(reqs, api.SubmitJobRequest{
			Name: fmt.Sprintf("tiny-%d", p), Algorithm: "workqueue", Workload: w,
			SubmissionID: submissionFor(fmt.Sprintf("tiny-%d-%d", e.seed, p), p, parts),
		})
	}
	s.drain(ctx, newClient(router.url, "", s.hc), reqs, tr)
	return s.r
}

// coaddSlice cuts tasks [off, off+n) out of a trace as a standalone
// workload with dense task and file ids.
func coaddSlice(trace *workload.Workload, off, n int, name string) *workload.Workload {
	files := map[workload.FileID]workload.FileID{}
	w := &workload.Workload{Name: name, Tasks: make([]workload.Task, n)}
	for i := range w.Tasks {
		src := trace.Tasks[off+i].Files
		dst := make([]workload.FileID, len(src))
		for k, f := range src {
			id, ok := files[f]
			if !ok {
				id = workload.FileID(len(files))
				files[f] = id
			}
			dst[k] = id
		}
		w.Tasks[i] = workload.Task{ID: workload.TaskID(i), Files: dst}
	}
	w.NumFiles = len(files)
	return w
}

// mixJob is one tenant-mix submission.
type mixJob struct {
	tenant int
	req    api.SubmitJobRequest
}

// mixJobs builds a round's submissions from the seed: slice offsets and
// the tenant order.
func mixJobs(e *env) ([]mixJob, error) {
	trace, err := gridsched.NewCoaddWorkload(e.subSeed(3), mixTraceTasks)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(e.subSeed(4)))
	jobs := make([]mixJob, mixJobCount)
	for i := range jobs {
		t := rng.Intn(len(mixTenants))
		name := fmt.Sprintf("mix-%d", i)
		jobs[i] = mixJob{tenant: t, req: api.SubmitJobRequest{
			Name: name, Algorithm: "combined.2", Seed: int64(i),
			Workload: coaddSlice(trace, rng.Intn(mixTraceTasks-mixSliceTasks), mixSliceTasks, name),
			Tenant:   mixTenants[t].name, Weight: mixTenants[t].weight,
			SubmissionID: fmt.Sprintf("mix-%d-%d", e.seed, i),
		}}
	}
	return jobs, nil
}

// openLoop paces operations from one goroutine: operation i is due at
// start + i*interval and is never sent early. Latency is measured from
// the due time, so a stall also counts against every operation queued
// behind it; lateness is how far behind schedule each one was sent.
type openLoop struct {
	start    time.Time
	interval time.Duration
	now      func() time.Time
	sleep    func(time.Duration)
}

func (o openLoop) due(i int) time.Time { return o.start.Add(time.Duration(i) * o.interval) }

// waitUntil sleeps until t unless the loop is already past it.
func (o openLoop) waitUntil(t time.Time) {
	if d := t.Sub(o.now()); d > 0 {
		o.sleep(d)
	}
}

// run issues n operations and returns each one's latency from its due
// time and its lateness, both in ms. between runs, in the same
// goroutine, in the slack before each due time.
func (o openLoop) run(n int, between func(i int), op func(i int) error) (lat, late samples, errs []error) {
	for i := 0; i < n; i++ {
		if between != nil {
			between(i)
		}
		due := o.due(i)
		o.waitUntil(due)
		sent := o.now()
		err := op(i)
		if err != nil {
			errs = append(errs, fmt.Errorf("op %d: %w", i, err))
			continue
		}
		lat.addDur(o.now().Sub(due), time.Millisecond)
		late.addDur(sent.Sub(due), time.Millisecond)
	}
	return lat, late, errs
}

func tenantMix(ctx context.Context, e *env, tr *tracer) *roundResult {
	s := newServiceRound(tr)
	defer s.close()
	begin := time.Now()
	jobs, err := mixJobs(e)
	if err != nil {
		s.r.fail("tenant-mix inputs", err)
		return s.r
	}
	tokens := map[string]middleware.Principal{"admin-token": {Admin: true}}
	for _, t := range mixTenants {
		tokens[t.name+"-token"] = middleware.Principal{Tenant: t.name}
	}
	d, err := s.startDaemon(e, daemonOpts{
		topo:   service.Topology{Sites: 2, WorkersPerSite: 1, CapacityFiles: coaddCapacity},
		tokens: benchTokens(tokens),
		// Limits far above the offered load: the limiter and the shedder
		// run on every request, but neither should ever refuse one.
		rateLimit: 20000,
		shedP99:   2 * time.Second,
	}, tr)
	if err != nil {
		s.r.fail("start daemon", err)
		return s.r
	}
	var mu sync.Mutex
	doneAt := map[string]time.Time{}
	for site := 0; site < 2; site++ {
		s.r.attempted++
		wk, err := openWorker(ctx, newClient(d.url, "worker-token", s.hc), &site, mixDepth, tr)
		if err != nil {
			s.r.fail("worker", err)
			return s.r
		}
		wk.onJobDone = func(jobID string, at time.Time) {
			mu.Lock()
			if _, seen := doneAt[jobID]; !seen {
				doneAt[jobID] = at
			}
			mu.Unlock()
		}
		s.fleet.workers = append(s.fleet.workers, wk)
	}
	submitters := make([]*client.Client, len(mixTenants))
	for i, t := range mixTenants {
		submitters[i] = newClient(d.url, t.name+"-token", s.hc)
	}
	reader := newClient(d.url, "admin-token", s.hc)
	total := 0
	for _, j := range jobs {
		total += len(j.req.Workload.Tasks)
	}
	s.fleet.start(ctx, int64(total))
	s.r.setup = time.Since(begin)

	loop := openLoop{start: time.Now(), interval: time.Second / mixRate, now: time.Now, sleep: time.Sleep}
	ids := make([]string, len(jobs))
	// One status read of the latest submitted job half-way between
	// submits: reads sit beside writes without a goroutine of their own.
	read := func(i int) {
		if i == 0 {
			return
		}
		loop.waitUntil(loop.due(i).Add(-loop.interval / 2))
		s.r.attempted++
		start := tr.start()
		t0 := time.Now()
		_, err := reader.Job(ctx, ids[i-1])
		tr.clientSpan("read", start)
		if err != nil {
			s.r.fail("status read", err)
			return
		}
		s.r.reads.addDur(time.Since(t0), time.Millisecond)
	}
	submit := func(i int) error {
		s.r.attempted++
		start := tr.start()
		id, err := submitters[jobs[i].tenant].SubmitJobIdempotent(ctx, jobs[i].req)
		tr.clientSpan("submit", start)
		ids[i] = id
		return err
	}
	lat, late, errs := loop.run(len(jobs), read, submit)
	for _, err := range errs {
		s.r.fail("submit", err)
	}
	s.r.acks, s.r.late = lat, late
	if err := s.fleet.wait(roundTimeout); err != nil {
		s.r.fail("drain", err)
	}
	s.r.measured = s.fleet.end.Sub(loop.start)
	s.r.paced = true
	s.fleet.collect(s.r)
	s.r.tasks = s.fleet.completed.Load()

	s.r.attempted++
	statuses, err := reader.Jobs(ctx)
	if err != nil {
		s.r.fail("job list", err)
	}
	byID := map[string]api.JobStatus{}
	for _, st := range statuses {
		byID[st.ID] = st
	}
	for i, id := range ids {
		if id == "" {
			continue
		}
		st, ok := byID[id]
		want := len(jobs[i].req.Workload.Tasks)
		if !ok || st.State != api.JobCompleted || st.Completed != want {
			s.r.failed++
			s.r.problem("job %s: state %q, completed %d of %d", id, st.State, st.Completed, want)
			continue
		}
		s.r.transfers += st.Transfers
		mu.Lock()
		at, seen := doneAt[id]
		mu.Unlock()
		if !seen {
			s.r.failed++
			s.r.problem("job %s completed without a report ack saying so", id)
			continue
		}
		s.r.turnaround.addDur(at.Sub(loop.due(i)), time.Millisecond)
	}
	s.scrape(ctx)
	return s.r
}

// figureSweep runs the Figure 4 capacity sweep as experiment.CapacitySweep
// does for one topology seed, with Parallelism 1, handing grid.Run each
// scheduler through tr.
func figureSweep(w *workload.Workload, seed int64, tr *tracer, r *roundResult) {
	for _, capacity := range experiment.PaperCapacities {
		for _, alg := range experiment.PaperAlgorithms() {
			cfg := grid.Config{
				Workload:       w,
				Sites:          grid.DefaultSites,
				WorkersPerSite: grid.DefaultWorkersPerSite,
				CapacityFiles:  capacity,
				Policy:         storage.LRU,
				FileSizeBytes:  grid.DefaultFileSizeBytes,
				SpeedSeed:      seed,
			}
			cfg.Topology.Seed = seed
			r.attempted++
			t0 := time.Now()
			sched, err := alg.Build(w, cfg, seed)
			tr.observeBuild(t0)
			if err != nil {
				r.fail(alg.Name, err)
				continue
			}
			res, err := grid.Run(cfg, tr.wrapScheduler(sched))
			if err != nil {
				r.fail(fmt.Sprintf("%s at capacity %d", alg.Name, capacity), err)
				continue
			}
			if res.Metrics.TasksCompleted != len(w.Tasks) {
				r.failed++
				r.problem("%s at capacity %d: %d of %d tasks completed", alg.Name, capacity, res.Metrics.TasksCompleted, len(w.Tasks))
			}
			r.sims++
			r.tasks += int64(res.Metrics.TasksCompleted)
			r.transfers += res.Metrics.TotalFileTransfers()
			r.makespans = append(r.makespans, res.MakespanMinutes())
			r.simTransfers = append(r.simTransfers, res.Metrics.TotalFileTransfers())
			r.kernelEvents += res.WallEvents
		}
	}
}

func paperFigure4(_ context.Context, e *env, tr *tracer) *roundResult {
	r := &roundResult{}
	begin := time.Now()
	cfg := workload.CoaddSmallConfig(e.subSeed(5))
	cfg.Tasks = figTasks
	w, err := workload.GenerateCoadd(cfg)
	if err != nil {
		r.fail("coadd trace", err)
		return r
	}
	seed := e.subSeed(6)
	r.setup = time.Since(begin)
	start := time.Now()
	figureSweep(w, seed, tr, r)
	r.measured = time.Since(start)
	r.turnaround.addDur(r.measured, time.Millisecond)
	// Runs of the sweep differ in size by design, so their times are not
	// samples of one distribution; the ack is the sweep's mean run.
	r.acks.add(ratio(float64(r.measured)/1e6, float64(r.sims)))
	return r
}
