package main

import (
	"bufio"
	"cmp"
	"context"
	"encoding/json"
	"math/bits"
	"net"
	"net/http"
	"os"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"gridsched/internal/core"
	"gridsched/internal/service"
	"gridsched/internal/workload"
)

// The traced run records spans from the benchmark's own code only: each
// wrapper below sits around a public entry point of one layer (an
// http.Handler, a service.SchedulerFactory, a core.Scheduler, a client
// call). The untraced run installs none of them.

// spanHeader carries the caller's span id across an HTTP hop, so the
// router's span parents the partition's and the ingress chain's parents
// the service mux's. The router's reverse proxy forwards it unchanged.
const spanHeader = "X-Bench-Span"

// maxSpans bounds the in-memory span log; spans beyond it are counted,
// not kept. Per-layer figures derived from spans use the kept ones.
const maxSpans = 1 << 19

type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"startNs"`
	End    int64  `json:"endNs"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. A nil *tracer means
// tracing is off; wrap* return their argument unchanged then.
type tracer struct {
	epoch   time.Time
	ids     atomic.Uint64
	dropped atomic.Int64

	mu    sync.Mutex
	spans []span

	core coreStats
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) record(s span) {
	t.mu.Lock()
	if len(t.spans) < maxSpans {
		t.spans = append(t.spans, s)
		t.mu.Unlock()
		return
	}
	t.mu.Unlock()
	t.dropped.Add(1)
}

// snapshot returns a copy of the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return slices.Clone(t.spans)
}

// write saves the span log as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range t.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// routeOp names the operation of a request for span names, or "" for
// requests that get no span: the lease stream lives for the whole round,
// and probes and scrapes are not workload traffic.
func routeOp(r *http.Request) string {
	p := r.URL.Path
	switch {
	case r.Method == http.MethodPost && p == "/v1/jobs":
		return "submit"
	case r.Method == http.MethodGet && strings.HasPrefix(p, "/v1/jobs"):
		return "read"
	case r.Method == http.MethodPost && strings.HasSuffix(p, "/reports"):
		return "report"
	case r.Method == http.MethodPost && p == "/v1/workers":
		return "register"
	}
	return ""
}

// wrapHandler records one span per request that crosses h, named
// "<layer> <op>", parented by the span id the request arrived with.
func (t *tracer) wrapHandler(layer string, h http.Handler) http.Handler {
	if t == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		op := routeOp(r)
		if op == "" {
			h.ServeHTTP(w, r)
			return
		}
		parent, _ := strconv.ParseUint(r.Header.Get(spanHeader), 10, 64)
		id := t.ids.Add(1)
		r.Header.Set(spanHeader, strconv.FormatUint(id, 10))
		start := t.now()
		h.ServeHTTP(w, r)
		t.record(span{ID: id, Parent: parent, Name: layer + " " + op, Start: start, End: t.now()})
	})
}

// clientSpan times one client call as a root span.
func (t *tracer) clientSpan(op string, start int64) {
	if t != nil {
		t.record(span{ID: t.ids.Add(1), Name: "client " + op, Start: start, End: t.now()})
	}
}

// start returns the span clock, or 0 with tracing off.
func (t *tracer) start() int64 {
	if t == nil {
		return 0
	}
	return t.now()
}

// selfTimes returns each parent span's self time: its duration minus the
// part of its interval that its children's spans cover. Spans without
// children are absent from the map; their self time is their duration.
func selfTimes(spans []span) map[uint64]int64 {
	byID := make(map[uint64]span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	children := make(map[uint64][][2]int64)
	for _, s := range spans {
		p, ok := byID[s.Parent]
		if s.Parent == 0 || !ok {
			continue
		}
		lo, hi := max(s.Start, p.Start), min(s.End, p.End)
		if hi > lo {
			children[s.Parent] = append(children[s.Parent], [2]int64{lo, hi})
		}
	}
	self := make(map[uint64]int64, len(children))
	for id, iv := range children {
		slices.SortFunc(iv, func(a, b [2]int64) int { return cmp.Compare(a[0], b[0]) })
		covered, end := int64(0), int64(-1<<63)
		for _, x := range iv {
			if x[0] > end {
				covered += x[1] - x[0]
				end = x[1]
			} else if x[1] > end {
				covered += x[1] - end
				end = x[1]
			}
		}
		self[id] = byID[id].dur() - covered
	}
	return self
}

// hist is a lock-free log-linear latency histogram: eight buckets per
// power of two, so a percentile read off it is within 6.25% of the true
// value. Schedulers of jobs on different shards run concurrently, so
// every counter is atomic.
type hist struct {
	b [62*8 + 8]atomic.Int64
}

func histBucket(ns int64) int {
	if ns < 8 {
		return int(max(ns, 0))
	}
	e := bits.Len64(uint64(ns))
	return (e-3)*8 + int(uint64(ns)>>(e-4)&7)
}

// histMid is the midpoint of bucket i in nanoseconds.
func histMid(i int) float64 {
	if i < 8 {
		return float64(i)
	}
	e, sub := i/8+3, i%8
	lo := float64(uint64(8+sub) << (e - 4))
	return lo + float64(uint64(1)<<(e-4))/2
}

func (h *hist) observe(ns int64) { h.b[histBucket(ns)].Add(1) }

func (h *hist) percentile(p float64) float64 {
	total := int64(0)
	for i := range h.b {
		total += h.b[i].Load()
	}
	if total == 0 {
		return 0
	}
	rank := int64(p / 100 * float64(total))
	rank = max(rank, 1)
	seen := int64(0)
	for i := range h.b {
		seen += h.b[i].Load()
		if seen >= rank {
			return histMid(i)
		}
	}
	return histMid(len(h.b) - 1)
}

// opStat counts calls into one scheduler method and their total time.
type opStat struct {
	calls atomic.Int64
	ns    atomic.Int64
}

func (o *opStat) observe(start time.Time) int64 {
	d := int64(time.Since(start))
	o.calls.Add(1)
	o.ns.Add(d)
	return d
}

func (o *opStat) meanUs() float64 {
	if c := o.calls.Load(); c > 0 {
		return float64(o.ns.Load()) / float64(c) / 1e3
	}
	return 0
}

// coreStats aggregates every call into internal/core made through the
// wrappers below.
type coreStats struct {
	nextFor, noteBatch, complete, failed, remaining, build opStat
	assigned                                               atomic.Int64
	nextForHist                                            hist
}

// busyNs is the total time spent inside scheduler code.
func (c *coreStats) busyNs() int64 {
	n := int64(0)
	for _, o := range []*opStat{&c.nextFor, &c.noteBatch, &c.complete, &c.failed, &c.remaining, &c.build} {
		n += o.ns.Load()
	}
	return n
}

// tracedScheduler times every core.Scheduler call and delegates it
// unchanged.
type tracedScheduler struct {
	inner core.Scheduler
	st    *coreStats
}

func (s *tracedScheduler) Name() string        { return s.inner.Name() }
func (s *tracedScheduler) AttachSite(site int) { s.inner.AttachSite(site) }

func (s *tracedScheduler) NoteBatch(site int, batch, fetched, evicted []workload.FileID) {
	start := time.Now()
	s.inner.NoteBatch(site, batch, fetched, evicted)
	s.st.noteBatch.observe(start)
}

func (s *tracedScheduler) NextFor(at core.WorkerRef) (workload.Task, core.Status) {
	start := time.Now()
	task, status := s.inner.NextFor(at)
	s.st.nextForHist.observe(s.st.nextFor.observe(start))
	if status == core.Assigned {
		s.st.assigned.Add(1)
	}
	return task, status
}

func (s *tracedScheduler) OnTaskComplete(id workload.TaskID, at core.WorkerRef) []core.WorkerRef {
	start := time.Now()
	cancel := s.inner.OnTaskComplete(id, at)
	s.st.complete.observe(start)
	return cancel
}

func (s *tracedScheduler) OnExecutionFailed(id workload.TaskID, at core.WorkerRef) {
	start := time.Now()
	s.inner.OnExecutionFailed(id, at)
	s.st.failed.observe(start)
}

func (s *tracedScheduler) Remaining() int {
	start := time.Now()
	n := s.inner.Remaining()
	s.st.remaining.observe(start)
	return n
}

// tracedReplayer is a tracedScheduler over a scheduler that implements
// core.Replayer; recovery type-asserts for it, so dropping the method
// would change how a wrapped job replays.
type tracedReplayer struct {
	*tracedScheduler
	r core.Replayer
}

func (s tracedReplayer) ReplayAssign(id workload.TaskID, at core.WorkerRef) error {
	return s.r.ReplayAssign(id, at)
}

// wrapScheduler returns sched timed into t, keeping its optional
// interfaces.
func (t *tracer) wrapScheduler(sched core.Scheduler) core.Scheduler {
	if t == nil {
		return sched
	}
	ts := &tracedScheduler{inner: sched, st: &t.core}
	if r, ok := sched.(core.Replayer); ok {
		return tracedReplayer{ts, r}
	}
	return ts
}

// observeBuild counts one scheduler build that began at start.
func (t *tracer) observeBuild(start time.Time) {
	if t != nil {
		t.core.build.observe(start)
	}
}

// wrapFactory times each scheduler build and wraps what it returns.
func (t *tracer) wrapFactory(f service.SchedulerFactory) service.SchedulerFactory {
	if t == nil {
		return f
	}
	return func(algorithm string, w *workload.Workload, topo service.Topology, seed int64) (core.Scheduler, error) {
		start := time.Now()
		sched, err := f(algorithm, w, topo, seed)
		t.observeBuild(start)
		if err != nil {
			return nil, err
		}
		return t.wrapScheduler(sched), nil
	}
}

// byteCounter counts bytes read and written on the connections of one
// client transport.
type byteCounter struct{ n atomic.Int64 }

type countedConn struct {
	net.Conn
	c *byteCounter
}

func (c countedConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.c.n.Add(int64(n))
	return n, err
}

func (c countedConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.c.n.Add(int64(n))
	return n, err
}

// httpClient returns the client transport the load generator uses. With
// a counter it counts every byte on the wire, in both directions.
func httpClient(bc *byteCounter) *http.Client {
	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.MaxIdleConnsPerHost = 64
	if bc != nil {
		d := &net.Dialer{Timeout: 5 * time.Second}
		tr.DialContext = func(ctx context.Context, network, addr string) (net.Conn, error) {
			conn, err := d.DialContext(ctx, network, addr)
			if err != nil {
				return nil, err
			}
			return countedConn{conn, bc}, nil
		}
	}
	return &http.Client{Transport: tr}
}
