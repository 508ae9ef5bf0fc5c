// Command benchmark is the repository's benchmark: one workload per run,
// chosen by name, measured for a fixed time and checked for correctness.
//
//	bash benchmark/run.sh --workload coadd-direct --seed 1 --seconds 30 --trace 0
//
// Service workloads run the real daemons in this process over loopback
// TCP: gridschedd's service behind its production ingress chain, and
// gridrouter's handler in front of partitions. paper-figure4 runs the
// paper's simulator.
//
// Each run repeats rounds until its time is used: a round sets the
// workload up afresh (inputs from --seed, daemons, workers), runs
// it, checks its outputs and tears it down. With --trace 0 the last line
// of standard output carries the end-to-end metrics, measured with no
// instrumentation installed. With --trace 1 rounds alternate untraced
// and traced: spans wrapped around each layer's entry points give the
// per-layer metrics, and the two kinds of round give the tracing
// overhead. The line before the result records the machine, a
// calibration probe, sample counts and any failed check.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"syscall"
	"time"
)

// buildDir is the checkout-relative directory for everything a
// run writes: data dirs, the span log.
const buildDir = ".bench_build"

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type record struct {
	Workload     string  `json:"workload"`
	Seed         int64   `json:"seed"`
	Seconds      int     `json:"seconds"`
	Trace        int     `json:"trace"`
	Machine      machine `json:"machine"`
	Rounds       int     `json:"rounds"`
	TracedRounds int     `json:"tracedRounds"`
	Tasks        int64   `json:"tasks"`
	AckSamples   int     `json:"ackSamples"`
	AckTailPct   int     `json:"ackTailPercentile"`
	ErrorRate    float64 `json:"errorRate"`
	// StealPct is the share of the machine's CPU time the hypervisor
	// took for others while the run lasted.
	StealPct     float64  `json:"stealPct"`
	Spans        int      `json:"spans,omitempty"`
	SpansDropped int64    `json:"spansDropped,omitempty"`
	SpanLog      string   `json:"spanLog,omitempty"`
	Problems     []string `json:"problems,omitempty"`
	// PerRound lists, for each untraced round: set-up time, measured
	// time, ack median, ack tail and process CPU time in ms, and the
	// steal share in percent, so a reader can see the spread behind each
	// median and what the machine was doing meanwhile.
	PerRound [][6]float64 `json:"perRound,omitempty"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run")
	seed := fs.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fs.Int("seconds", 30, "how long to measure")
	traceFlag := fs.Int("trace", 0, "1: report per-layer metrics from a traced run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var def *workloadDef
	for i := range workloads {
		if workloads[i].name == *name {
			def = &workloads[i]
		}
	}
	if def == nil || *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(stderr, "benchmark: want --workload one of %v, --seconds >= 1, --trace 0 or 1\n", workloadNames())
		return 2
	}

	dataDir := filepath.Join(buildDir, fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(dataDir, 0o755); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	defer os.RemoveAll(dataDir)
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	rec := record{Workload: def.name, Seed: *seed, Seconds: *seconds, Trace: *traceFlag, Machine: probeMachine(dataDir)}
	traced := *traceFlag == 1
	var tr *tracer
	if traced {
		tr = newTracer()
	}
	e := &env{seed: *seed, dataDir: dataDir}
	steal0, total0 := cpuStat()
	plain, withTrace := runRounds(ctx, def, e, tr, time.Duration(*seconds)*time.Second)
	steal1, total1 := cpuStat()
	rec.StealPct = 100 * ratio(float64(steal1-steal0), float64(total1-total0))

	res := result{Correct: true, Metrics: map[string]metric{}}
	all := append(slices.Clone(plain), withTrace...)
	for _, r := range all {
		res.Attempted += r.attempted
		res.Failed += r.failed
		rec.Tasks += r.tasks
		rec.Problems = append(rec.Problems, r.problems...)
	}
	if p := sweepMismatch(all); p != "" {
		res.Failed++
		rec.Problems = append(rec.Problems, p)
	}
	if ctx.Err() != nil {
		rec.Problems = append(rec.Problems, "interrupted")
	}
	res.Correct = len(rec.Problems) == 0
	res.Attempted = max(res.Attempted, 1)
	rec.ErrorRate = float64(res.Failed) / float64(res.Attempted)
	rec.Rounds, rec.TracedRounds = len(all), len(withTrace)

	if traced {
		res.Metrics = layerMetrics(plain, withTrace, tr)
		rec.Spans, rec.SpansDropped = len(tr.snapshot()), tr.dropped.Load()
		rec.SpanLog = filepath.Join(buildDir, "traces", fmt.Sprintf("%s-seed%d.jsonl", def.name, *seed))
		err := os.MkdirAll(filepath.Dir(rec.SpanLog), 0o755)
		if err == nil {
			err = tr.write(rec.SpanLog)
		}
		if err != nil {
			fmt.Fprintln(stderr, "benchmark: span log:", err)
			rec.SpanLog = ""
		}
	} else {
		res.Metrics = endToEndMetrics(plain)
		var acks samples
		for _, r := range plain {
			acks = append(acks, r.acks...)
		}
		rec.AckSamples = len(acks)
		_, rec.AckTailPct = acks.tail(99)
		for _, r := range plain {
			tail, _ := r.acks.tail(99)
			rec.PerRound = append(rec.PerRound, [6]float64{
				float64(r.setup) / 1e6, float64(r.measured) / 1e6, r.acks.median(), tail, float64(r.cpu) / 1e6, r.stealPct})
		}
	}

	enc := json.NewEncoder(stdout)
	if err := enc.Encode(rec); err != nil {
		return 1
	}
	if err := enc.Encode(res); err != nil {
		return 1
	}
	if !res.Correct {
		return 1
	}
	return 0
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

// runRounds repeats rounds until the budget is used, and at least
// minRounds, so set-up time is always a median. With a tracer, every
// second round is traced.
func runRounds(ctx context.Context, def *workloadDef, e *env, tr *tracer, budget time.Duration) (plain, traced []*roundResult) {
	const minRounds = 3
	begin := time.Now()
	for i := 0; ctx.Err() == nil; i++ {
		var rt *tracer
		if tr != nil && i%2 == 1 {
			rt = tr
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		cpu0 := cpuTime()
		steal0, total0 := cpuStat()
		t0 := time.Now()
		r := def.round(ctx, e, rt)
		took := time.Since(t0)
		r.cpu = cpuTime() - cpu0
		steal1, total1 := cpuStat()
		r.stealPct = 100 * ratio(float64(steal1-steal0), float64(total1-total0))
		runtime.ReadMemStats(&after)
		r.allocBytes = after.TotalAlloc - before.TotalAlloc
		r.gcCycles = after.NumGC - before.NumGC
		r.gcPauseNs = after.PauseTotalNs - before.PauseTotalNs
		if rt != nil {
			traced = append(traced, r)
		} else {
			plain = append(plain, r)
		}
		if len(r.problems) > 0 {
			break // a failed round fails the run; more rounds add nothing
		}
		if i+1 >= minRounds && time.Since(begin)+took > budget {
			break
		}
	}
	return plain, traced
}

// sweepMismatch checks that every paper-figure4 round, traced or not,
// reproduced the first round's makespans and transfers exactly.
func sweepMismatch(rounds []*roundResult) string {
	for i, r := range rounds {
		if i == 0 || r.sims == 0 {
			continue
		}
		if !slices.Equal(r.makespans, rounds[0].makespans) || !slices.Equal(r.simTransfers, rounds[0].simTransfers) {
			return fmt.Sprintf("sweep round %d differs from round 1: makespans %v vs %v", i+1, r.makespans, rounds[0].makespans)
		}
	}
	return ""
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// endToEndMetrics reports what a user of the system sees. Every workload
// reports every metric; what a "turnaround" is depends on the workload:
//
//	coadd-direct     one round's drain, first submit to last report ack
//	tiny-routed      one round's drain, first submit to last report ack
//	tenant-mix       one job, from its due time to its completion ack
//	paper-figure4    one sweep
//
// Timings after set-up are counted in steal-free time: each round's
// durations are scaled by the share of CPU time the hypervisor left this
// machine during the round (see stealFree). The record line keeps each
// round's raw figures and its steal share.
//
// Acknowledgement latencies (report batches, submits, simulation runs)
// are not among them. A sub-millisecond report ack keeps its median
// through steal that stretches every round, while a 5ms submit ack does
// not, so neither raw nor steal-free medians of them hold a bound here.
// The traced run reports them as loadgen.ack_ms_p50 and _tail, and the
// record line gives every round's.
func endToEndMetrics(rounds []*roundResult) map[string]metric {
	var setup, rate, cpu, turnaround samples
	var tasks, transfers int64
	for _, r := range rounds {
		f := stealFree(r.stealPct)
		setup.addDur(r.setup, time.Second)
		if r.paced {
			// An open loop's window is set by its schedule, not by how
			// fast the work went.
			rate.add(ratio(float64(r.tasks), r.measured.Seconds()))
		} else {
			rate.add(ratio(float64(r.tasks), r.measured.Seconds()*f))
		}
		cpu.add(ratio(float64(r.cpu)/1e3, float64(r.tasks)))
		for _, v := range r.turnaround {
			turnaround.add(v * f)
		}
		tasks += r.tasks
		transfers += r.transfers
	}
	return map[string]metric{
		"setup_s":            {setup.median(), "s"},
		"tasks_per_s":        {rate.median(), "1/s"},
		"cpu_us_per_task":    {cpu.median(), "us"},
		"transfers_per_task": {ratio(float64(transfers), float64(tasks)), "count"},
		"turnaround_ms_p50":  {turnaround.median(), "ms"},
		"peak_rss_mb":        {peakRSSMB(), "MiB"},
	}
}

// stealFree is the share of a round's wall-clock time the machine's CPUs
// were its own: 1 minus the hypervisor's steal share. On a shared cloud
// machine steal swings between a few percent and a third of all CPU time
// from one minute to the next, and a round's wall-clock figures stretch
// with it; scaling them by this share compares rounds as if each had the
// CPUs to itself. Process CPU time (cpu_us_per_task) needs no such
// scaling: stolen time is never charged to the process.
func stealFree(stealPct float64) float64 {
	return 1 - min(max(stealPct, 0), 90)/100
}

// layerMetrics reports the per-layer figures of the traced rounds, plus
// the runtime and load-generator figures of the untraced ones. Counts are
// per round: every round of a workload does the same work.
func layerMetrics(plain, traced []*roundResult, tr *tracer) map[string]metric {
	var tasks, frames, empty, batches, reports, wire int64
	var measured time.Duration
	var events uint64
	expo := exposition{}
	for _, r := range traced {
		tasks += r.tasks
		measured += r.measured
		frames += r.frames
		empty += r.emptyFrames
		batches += r.batches
		reports += r.reports
		wire += r.wireBytes
		events += r.kernelEvents
		expo.add(r.expo)
	}
	nT := float64(len(traced))
	perTask := func(v float64) float64 { return ratio(v, float64(tasks)) }
	perRound := func(v float64) float64 { return ratio(v, nT) }

	spans := tr.snapshot()
	self := selfTimes(spans)
	byName := map[string]samples{}
	var serviceNs, ingressSelf float64
	var ingressN int
	var hops samples
	for _, s := range spans {
		us := float64(s.dur()) / 1e3
		byName[s.Name] = append(byName[s.Name], us)
		selfNs, hasChild := self[s.ID]
		switch layer, _, _ := strings.Cut(s.Name, " "); layer {
		case "service":
			serviceNs += float64(s.dur())
		case "ingress":
			// A request the chain refused has no service span: all of
			// its time was middleware.
			ingressN++
			if hasChild {
				us = float64(selfNs) / 1e3
			}
			ingressSelf += us
		case "router":
			if hasChild {
				hops.add(float64(selfNs) / 1e3)
			}
		}
	}
	reportP99, _ := byName["service report"].tail(99)
	hopP99, _ := hops.tail(99)

	c := &tr.core
	busy := float64(c.busyNs())
	dispatchSum := expo.sum("gridsched_dispatch_latency_seconds_sum")
	dispatchCount := expo.sum("gridsched_dispatch_latency_seconds_count")

	var untracedTasks int64
	var alloc, pause uint64
	var gcs uint32
	var late, reads, acks, tPlain, tTraced samples
	for _, r := range plain {
		acks = append(acks, r.acks...)
		untracedTasks += r.tasks
		alloc += r.allocBytes
		pause += r.gcPauseNs
		gcs += r.gcCycles
		late = append(late, r.late...)
		reads = append(reads, r.reads...)
		for _, v := range r.turnaround {
			tPlain.add(v * stealFree(r.stealPct))
		}
	}
	for _, r := range traced {
		for _, v := range r.turnaround {
			tTraced.add(v * stealFree(r.stealPct))
		}
	}
	nU := float64(len(plain))
	lateTail, _ := late.tail(99)
	ackTail, _ := acks.tail(99)
	var makespan float64
	if len(traced) > 0 {
		makespan = samples(traced[0].makespans).mean()
	}

	m := map[string]metric{
		"core.nextfor_calls":     {perRound(float64(c.nextFor.calls.Load())), "count"},
		"core.nextfor_us_mean":   {c.nextFor.meanUs(), "us"},
		"core.nextfor_us_p99":    {c.nextForHist.percentile(99) / 1e3, "us"},
		"core.assigned_ratio":    {ratio(float64(c.assigned.Load()), float64(c.nextFor.calls.Load())), "ratio"},
		"core.notebatch_us_mean": {c.noteBatch.meanUs(), "us"},
		"core.complete_us_mean":  {c.complete.meanUs(), "us"},
		"core.new_us_mean":       {c.build.meanUs(), "us"},
		"core.busy_share":        {ratio(busy, float64(measured)), "ratio"},

		"service.dispatch_us_mean":      {ratio(dispatchSum, dispatchCount) * 1e6, "us"},
		"service.dispatch_us_max":       {expo.sum("gridsched_dispatch_latency_max_seconds") * 1e6, "us"},
		"service.report_batch_us_p50":   {byName["service report"].median(), "us"},
		"service.report_batch_us_p99":   {reportP99, "us"},
		"service.submit_us_p50":         {byName["service submit"].median(), "us"},
		"service.read_us_p50":           {byName["service read"].median(), "us"},
		"service.self_us_per_task":      {perTask(serviceNs+dispatchSum*1e9-busy) / 1e3, "us"},
		"service.stale_reports":         {expo.sum("gridsched_stale_reports_total"), "count"},
		"service.leases_expired":        {expo.sum("gridsched_leases_expired_total"), "count"},
		"journal.records_per_task":      {perTask(expo.sum("gridsched_journal_records_total")), "count"},
		"journal.bytes_per_task":        {perTask(expo.sum("gridsched_journal_bytes_total")), "B"},
		"journal.tasks_per_fsync":       {ratio(float64(tasks), expo.sum("gridsched_journal_fsyncs_total")), "count"},
		"journal.snapshots":             {perRound(expo.sum("gridsched_snapshots_total")), "count"},
		"journal.snapshot_pause_ms_max": {expo[`gridsched_snapshot_pause_ms{stat="max"}`], "ms"},
		"middleware.self_us_mean":       {ratio(ingressSelf, float64(ingressN)), "us"},
		"middleware.requests":           {perRound(expo.sum("gridsched_ingress_requests_total")), "count"},
		"middleware.sheds":              {perRound(expo.sum("gridsched_ingress_sheds_total")), "count"},
		"middleware.throttled":          {perRound(expo.sum("gridsched_ingress_throttled_ip_total") + expo.sum("gridsched_ingress_throttled_tenant_total")), "count"},
		"partition.hop_us_p50":          {hops.median(), "us"},
		"partition.hop_us_p99":          {hopP99, "us"},
		"partition.forwards":            {perRound(float64(len(hops))), "count"},
		"wire.bytes_per_task":           {perTask(float64(wire)), "B"},
		"client.frames_per_task":        {perTask(float64(frames)), "count"},
		"client.empty_frames_ratio":     {ratio(float64(empty), float64(frames)), "ratio"},
		"client.report_batch_mean":      {ratio(float64(reports), float64(batches)), "count"},
		"client.status_read_ms_p50":     {reads.median(), "ms"},
		"sim.kernel_events":             {perRound(float64(events)), "count"},
		"sim.events_per_s":              {ratio(float64(events), measured.Seconds()), "1/s"},
		"sim.engine_self_s":             {perRound((float64(measured) - busy) / 1e9), "s"},
		"sim.makespan_min":              {makespan, "min"},
		"runtime.alloc_bytes_per_task":  {ratio(float64(alloc), float64(untracedTasks)), "B"},
		"runtime.gc_cycles":             {ratio(float64(gcs), nU), "count"},
		"runtime.gc_pause_ms":           {ratio(float64(pause)/1e6, nU), "ms"},
		"loadgen.ack_ms_p50":            {acks.median(), "ms"},
		"loadgen.ack_ms_tail":           {ackTail, "ms"},
		"loadgen.late_ms_tail":          {lateTail, "ms"},
		"loadgen.late_ms_max":           {late.max(), "ms"},
		"trace.overhead_pct":            {(ratio(tTraced.median(), tPlain.median()) - 1) * 100, "%"},
	}
	if serviceNs == 0 {
		m["service.self_us_per_task"] = metric{0, "us"}
	}
	if len(traced) > 0 && traced[0].sims == 0 {
		// Simulator figures mean nothing on a service workload.
		for _, k := range []string{"sim.kernel_events", "sim.events_per_s", "sim.engine_self_s"} {
			m[k] = metric{0, m[k].Unit}
		}
	}
	return m
}
