package main

import (
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"gridsched"
	"gridsched/internal/core"
	"gridsched/internal/experiment"
	"gridsched/internal/service"
	"gridsched/internal/storage"
	"gridsched/internal/workload"
)

func TestTailPercentileLeavesTenSamplesBeyond(t *testing.T) {
	cases := []struct{ n, limit, want int }{
		{0, 99, 50},
		{99, 99, 50},
		{100, 99, 90},
		{199, 99, 90},
		{200, 99, 95},
		{999, 99, 95},
		{1000, 99, 99},
		{100000, 99, 99},
		{100000, 95, 95},
	}
	for _, c := range cases {
		if got := tailPercentile(c.n, c.limit); got != c.want {
			t.Errorf("tailPercentile(%d, %d) = %d, want %d", c.n, c.limit, got, c.want)
		}
	}
	var s samples
	for i := 1; i <= 200; i++ {
		s.add(float64(i))
	}
	if v, p := s.tail(99); p != 95 || v != 190 {
		t.Errorf("tail of 1..200 = %v at p%d, want 190 at p95", v, p)
	}
	if m := s.median(); m != 100 {
		t.Errorf("median of 1..200 = %v, want 100", m)
	}
}

func TestSelfTimesSubtractTheUnionOfChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "router", Start: 0, End: 100},
		// Overlapping children count once; the part of a child outside
		// its parent does not count at all.
		{ID: 2, Parent: 1, Name: "ingress", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "ingress", Start: 20, End: 50},
		{ID: 4, Parent: 1, Name: "ingress", Start: 90, End: 120},
		// A grandchild is its parent's business, not the router's.
		{ID: 5, Parent: 3, Name: "service", Start: 25, End: 45},
		// A child whose parent was never recorded is ignored.
		{ID: 6, Parent: 99, Name: "service", Start: 0, End: 10},
	}
	self := selfTimes(spans)
	want := map[uint64]int64{1: 100 - 40 - 10, 3: 30 - 20}
	if len(self) != len(want) {
		t.Fatalf("selfTimes = %v, want %v", self, want)
	}
	for id, v := range want {
		if self[id] != v {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], v)
		}
	}
}

// fakeClock advances only when the code under test sleeps or does work.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) sleep(d time.Duration)   { c.t = c.t.Add(d) }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }

func TestOpenLoopCountsStallsFromDueTime(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	loop := openLoop{start: clk.now(), interval: 10 * time.Millisecond, now: clk.now, sleep: clk.sleep}
	// Operation 0 stalls for 100ms; the rest take 5ms. Operations 1..9
	// were due during the stall and go out late, back to back.
	cost := []time.Duration{100, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5}
	var sentAt []time.Time
	lat, late, errs := loop.run(len(cost), nil, func(i int) error {
		sentAt = append(sentAt, clk.now())
		clk.advance(cost[i] * time.Millisecond)
		return nil
	})
	if len(errs) != 0 {
		t.Fatal(errs)
	}
	for i := range cost {
		if due := loop.due(i); sentAt[i].Before(due) {
			t.Fatalf("op %d sent at %v, before its due time %v", i, sentAt[i], due)
		}
	}
	// Op 1 was due at 10ms, sent at 100ms, acknowledged at 105ms.
	if lat[1] != 95 || late[1] != 90 {
		t.Errorf("op 1: latency %vms late %vms, want 95 and 90", lat[1], late[1])
	}
	if lat[0] != 100 || late[0] != 0 {
		t.Errorf("op 0: latency %vms late %vms, want 100 and 0", lat[0], late[0])
	}
	// The backlog drains at 5ms per op against a 10ms interval: op k
	// (k >= 1) is sent at 100+5(k-1) ms, so it is late until k = 19.
	for k := 1; k < len(cost); k++ {
		wantLate := math.Max(0, float64(100+5*(k-1)-10*k))
		if late[k] != wantLate || lat[k] != wantLate+5 {
			t.Errorf("op %d: latency %v late %v, want %v and %v", k, lat[k], late[k], wantLate+5, wantLate)
		}
	}
	if late.max() != 90 {
		t.Errorf("max lateness %v, want 90", late.max())
	}
}

func TestWrapSchedulerKeepsOptionalInterfaces(t *testing.T) {
	w, err := gridsched.NewCoaddWorkload(gridsched.DefaultCoaddSeed, 200)
	if err != nil {
		t.Fatal(err)
	}
	topo := service.Topology{Sites: 2, WorkersPerSite: 1, CapacityFiles: 3000, Policy: storage.LRU}
	factory := gridsched.SchedulerFactory()
	tr := newTracer()
	for _, alg := range []string{"storage-affinity", "combined.2", "workqueue"} {
		plain, err := factory(alg, w, topo, 1)
		if err != nil {
			t.Fatal(err)
		}
		wrapped, err := tr.wrapFactory(factory)(alg, w, topo, 1)
		if err != nil {
			t.Fatal(err)
		}
		_, plainReplays := plain.(core.Replayer)
		_, wrappedReplays := wrapped.(core.Replayer)
		if plainReplays != wrappedReplays {
			t.Errorf("%s: Replayer %v unwrapped, %v wrapped", alg, plainReplays, wrappedReplays)
		}
		// Same decisions, call for call.
		for _, s := range []core.Scheduler{plain, wrapped} {
			s.AttachSite(0)
			s.AttachSite(1)
		}
		for i := 0; i < 2*len(w.Tasks); i++ {
			at := core.WorkerRef{Site: i % 2}
			a, sa := plain.NextFor(at)
			b, sb := wrapped.NextFor(at)
			if sa != sb || a.ID != b.ID {
				t.Fatalf("%s: call %d: unwrapped %v/%v, wrapped %v/%v", alg, i, a.ID, sa, b.ID, sb)
			}
			if sa != core.Assigned {
				continue
			}
			plain.NoteBatch(at.Site, a.Files, a.Files, nil)
			wrapped.NoteBatch(at.Site, b.Files, b.Files, nil)
			plain.OnTaskComplete(a.ID, at)
			wrapped.OnTaskComplete(b.ID, at)
		}
		if plain.Remaining() != 0 || wrapped.Remaining() != 0 {
			t.Errorf("%s: remaining %d unwrapped, %d wrapped", alg, plain.Remaining(), wrapped.Remaining())
		}
	}
	if tr.core.build.calls.Load() != 3 || tr.core.nextFor.calls.Load() == 0 || tr.core.assigned.Load() == 0 {
		t.Errorf("counters: builds %d, NextFor %d, assigned %d", tr.core.build.calls.Load(), tr.core.nextFor.calls.Load(), tr.core.assigned.Load())
	}
}

// TestCoreStatsConcurrent drives schedulers of different jobs from
// several goroutines at once, as the service's shards do; run with -race.
func TestCoreStatsConcurrent(t *testing.T) {
	tr := newTracer()
	const jobs, tasks = 4, 500
	var wg sync.WaitGroup
	for j := 0; j < jobs; j++ {
		w := tinyWorkload(tasks)
		sched := tr.wrapScheduler(core.NewWorkqueue(w))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				task, st := sched.NextFor(core.WorkerRef{})
				if st != core.Assigned {
					return
				}
				sched.OnTaskComplete(task.ID, core.WorkerRef{})
			}
		}()
	}
	wg.Wait()
	if got := tr.core.assigned.Load(); got != jobs*tasks {
		t.Errorf("assigned %d, want %d", got, jobs*tasks)
	}
	if got := tr.core.complete.calls.Load(); got != jobs*tasks {
		t.Errorf("completions %d, want %d", got, jobs*tasks)
	}
	if p := tr.core.nextForHist.percentile(99); p <= 0 {
		t.Errorf("NextFor p99 %v, want > 0", p)
	}
}

func TestHistPercentileWithinBucketError(t *testing.T) {
	var h hist
	var s samples
	for i := int64(1); i <= 10000; i++ {
		v := i * 37
		h.observe(v)
		s.add(float64(v))
	}
	for _, p := range []float64{50, 90, 99} {
		got, want := h.percentile(p), s.percentile(p)
		if math.Abs(got-want)/want > 0.0625 {
			t.Errorf("p%v = %v, want within 6.25%% of %v", p, got, want)
		}
	}
}

func TestParseExposition(t *testing.T) {
	text := `# HELP gridsched_pulls_total Pulls.
# TYPE gridsched_pulls_total counter
gridsched_pulls_total 12
gridsched_dispatch_latency_seconds_sum 1.5e-03
gridsched_tenant_share_target{tenant="a b"} 0.25
gridsched_tenant_share_target{tenant="c"} 0.75 1700000000000
`
	e, err := parseExposition(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	if e.sum("gridsched_pulls_total") != 12 || e.sum("gridsched_dispatch_latency_seconds_sum") != 0.0015 {
		t.Errorf("parsed %v", e)
	}
	if got := e.sum("gridsched_tenant_share_target"); got != 1 {
		t.Errorf("sum over labels = %v, want 1", got)
	}
	if e.sum("gridsched_pulls") != 0 {
		t.Error("a metric name matched another name's prefix")
	}
	if _, err := parseExposition(strings.NewReader("gridsched_pulls_total twelve\n")); err == nil {
		t.Error("a malformed value parsed")
	}
}

// TestFigureSweepMatchesExperiment pins the benchmark's sweep to the
// repository's own Figure 4 sweep, at reduced scale.
func TestFigureSweepMatchesExperiment(t *testing.T) {
	const tasks, coaddSeed, seed = 300, 11, 4
	sw, err := experiment.CapacitySweep(experiment.Options{
		Tasks: tasks, CoaddSeed: coaddSeed, Seeds: []int64{seed}, Parallelism: 1,
	}, experiment.PaperCapacities)
	if err != nil {
		t.Fatal(err)
	}
	cfg := workload.CoaddSmallConfig(coaddSeed)
	cfg.Tasks = tasks
	w, err := workload.GenerateCoadd(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var r roundResult
	figureSweep(w, seed, newTracer(), &r)
	if len(r.problems) > 0 {
		t.Fatal(r.problems)
	}
	i := 0
	for pi := range sw.Cells {
		for ai := range sw.Cells[pi] {
			want := sw.Cells[pi][ai].Runs[0]
			if r.makespans[i] != want.MakespanMinutes() || r.simTransfers[i] != want.Metrics.TotalFileTransfers() {
				t.Errorf("%s at %s: makespan %v transfers %d, want %v and %d", sw.Algorithms[ai], sw.PointLabels[pi],
					r.makespans[i], r.simTransfers[i], want.MakespanMinutes(), want.Metrics.TotalFileTransfers())
			}
			i++
		}
	}
}

func TestStealAccounting(t *testing.T) {
	steal, total := parseCPUStat("cpu  215832 0 34078 619532 12875 0 7649 36840 500 0")
	if steal != 36840 || total != 215832+34078+619532+12875+7649+36840 {
		t.Errorf("parseCPUStat = %d, %d", steal, total)
	}
	if s, tot := parseCPUStat("cpu0 1 2 3 4 5 6 7 8 9 10"); s != 0 || tot != 0 {
		t.Errorf("a per-CPU line parsed as the aggregate: %d, %d", s, tot)
	}
	// A quarter of the CPU time stolen: a 100ms round had 75ms of CPU.
	if f := stealFree(25); f != 0.75 {
		t.Errorf("stealFree(25) = %v", f)
	}
	if f := stealFree(-1); f != 1 {
		t.Errorf("stealFree(-1) = %v", f)
	}
}
