package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"gridsched"
	"gridsched/internal/journal"
	"gridsched/internal/metrics"
	"gridsched/internal/middleware"
	"gridsched/internal/partition"
	"gridsched/internal/service"
	"gridsched/internal/service/api"
	"gridsched/internal/service/client"
)

// daemonOpts is the part of a gridschedd command line a workload varies.
// Everything else keeps the daemon's defaults, fsync=batch included.
type daemonOpts struct {
	topo        service.Topology
	part, parts int
	dataDir     string
	tokens      *middleware.TokenStore
	rateLimit   float64
	shedP99     time.Duration
}

// server is one HTTP server on a loopback port.
type server struct {
	srv    *http.Server
	url    string
	served chan error
}

func serve(h http.Handler) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &server{srv: &http.Server{Handler: h}, url: "http://" + ln.Addr().String(), served: make(chan error, 1)}
	go func() { s.served <- s.srv.Serve(ln) }()
	return s, nil
}

func (s *server) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	if serr := <-s.served; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	return err
}

// daemon is one gridschedd assembled as cmd/gridschedd assembles it: the
// service behind the production ingress chain, on a loopback socket.
type daemon struct {
	*server
	svc *service.Service
}

func startDaemon(o daemonOpts, tr *tracer) (*daemon, error) {
	svc, err := service.New(service.Config{
		Topology:       o.topo,
		NewScheduler:   tr.wrapFactory(gridsched.SchedulerFactory()),
		DataDir:        o.dataDir,
		Fsync:          journal.SyncBatch,
		PartitionIndex: o.part,
		PartitionCount: o.parts,
	})
	if err != nil {
		return nil, err
	}
	h := middleware.Ingress(middleware.Config{
		Counters:     metrics.NewIngressCounters(),
		Tokens:       o.tokens,
		RateLimit:    o.rateLimit,
		ShedP99:      o.shedP99,
		TenantWeight: svc.TenantWeight,
	}, tr.wrapHandler("service", svc.Handler()))
	s, err := serve(tr.wrapHandler("ingress", h))
	if err != nil {
		svc.Close()
		return nil, err
	}
	return &daemon{server: s, svc: svc}, nil
}

// router is gridrouter's handler on a loopback socket.
type router struct {
	*server
	transport *http.Transport // to the partitions
}

// startRouter fronts the partitions with gridrouter's handler.
func startRouter(parts []*daemon, tr *tracer) (*router, error) {
	urls := make([]string, len(parts))
	for i, d := range parts {
		urls[i] = d.url
	}
	// gridrouter's own transport settings; the benchmark keeps a handle
	// on it to close its idle connections at teardown.
	transport := http.DefaultTransport.(*http.Transport).Clone()
	transport.MaxIdleConnsPerHost = 256
	rt, err := partition.New(partition.Config{Partitions: urls, Transport: transport})
	if err != nil {
		return nil, err
	}
	s, err := serve(tr.wrapHandler("router", rt.Handler()))
	if err != nil {
		return nil, err
	}
	return &router{server: s, transport: transport}, nil
}

func (r *router) close() error {
	err := r.server.close()
	r.transport.CloseIdleConnections()
	return err
}

// newClient builds a binary-codec client, as gridworker -codec binary.
func newClient(base, token string, hc *http.Client) *client.Client {
	cl := client.New(base, hc)
	cl.AuthToken = token
	if err := cl.SetCodec("binary"); err != nil {
		panic(err) // a constant mode
	}
	return cl
}

// streamWorker drains leases from one stream and reports each frame's
// assignments back as one batch, executing nothing in between: the
// benchmark measures the scheduler service, not task execution.
type streamWorker struct {
	cl *client.Client
	id string
	ls *client.LeaseStream
	tr *tracer

	acks                                  samples // report batch round trips, ms
	frames, emptyFrames, batches, reports int64
	rejected                              int64
	// onJobDone, when set, is told the first time a report ack says a
	// job completed.
	onJobDone func(jobID string, at time.Time)
}

// openWorker registers a worker (pinned to site when it is not nil) and
// opens its lease stream with the given pipeline depth.
func openWorker(ctx context.Context, cl *client.Client, site *int, depth int, tr *tracer) (*streamWorker, error) {
	start := tr.start()
	reg, err := cl.Register(ctx, site)
	tr.clientSpan("register", start)
	if err != nil {
		return nil, fmt.Errorf("register: %w", err)
	}
	ls, err := cl.StreamLeases(ctx, reg.WorkerID, depth)
	if err != nil {
		return nil, fmt.Errorf("stream: %w", err)
	}
	return &streamWorker{cl: cl, id: reg.WorkerID, ls: ls, tr: tr}, nil
}

// run drains until the stream closes. Every accepted report adds to
// completed; the worker that brings it to target closes done.
func (w *streamWorker) run(ctx context.Context, completed *atomic.Int64, target int64, done func()) error {
	var items []api.ReportItem
	for {
		start := w.tr.start()
		lb, err := w.ls.Next()
		if err != nil {
			return err
		}
		w.tr.clientSpan("frame", start)
		w.frames++
		if len(lb.Assignments) == 0 {
			w.emptyFrames++
			continue
		}
		items = items[:0]
		for i := range lb.Assignments {
			items = append(items, api.ReportItem{AssignmentID: lb.Assignments[i].ID, Outcome: api.OutcomeSuccess})
		}
		start = w.tr.start()
		t0 := time.Now()
		res, err := w.cl.ReportBatch(ctx, w.id, items)
		acked := time.Now()
		w.tr.clientSpan("report", start)
		if err != nil {
			return fmt.Errorf("report batch: %w", err)
		}
		w.acks.addDur(acked.Sub(t0), time.Millisecond)
		w.batches++
		w.reports += int64(len(items))
		accepted := int64(0)
		for i := range res {
			if !res[i].Accepted {
				w.rejected++
				continue
			}
			accepted++
			if res[i].JobState == api.JobCompleted && w.onJobDone != nil {
				w.onJobDone(lb.Assignments[i].JobID, acked)
			}
		}
		if completed.Add(accepted) >= target {
			done()
		}
	}
}

// fleet is the set of stream workers of one round.
type fleet struct {
	workers   []*streamWorker
	completed atomic.Int64
	doneOnce  sync.Once
	done      chan struct{}
	end       time.Time // when done closed: the last report ack of the round
	wg        sync.WaitGroup

	mu   sync.Mutex
	errs []error
}

// finish ends the round once.
func (f *fleet) finish() {
	f.doneOnce.Do(func() {
		f.end = time.Now()
		close(f.done)
	})
}

// start runs every worker until target reports are accepted.
func (f *fleet) start(ctx context.Context, target int64) {
	f.done = make(chan struct{})
	for _, w := range f.workers {
		f.wg.Add(1)
		go func() {
			defer f.wg.Done()
			err := w.run(ctx, &f.completed, target, f.finish)
			select {
			case <-f.done:
				// The round ended and closed the stream under the worker.
			default:
				f.mu.Lock()
				f.errs = append(f.errs, fmt.Errorf("worker %s: %w", w.id, err))
				f.mu.Unlock()
				f.finish()
			}
		}()
	}
}

// wait blocks until the target is reached, a worker fails, or the
// timeout passes; then it closes every stream and waits for the workers.
func (f *fleet) wait(timeout time.Duration) error {
	timer := time.NewTimer(timeout)
	var err error
	select {
	case <-f.done:
	case <-timer.C:
		err = fmt.Errorf("round did not finish within %s (%d reports accepted)", timeout, f.completed.Load())
		f.finish()
	}
	timer.Stop()
	f.closeStreams()
	f.wg.Wait()
	f.mu.Lock()
	defer f.mu.Unlock()
	return errors.Join(append(f.errs, err)...)
}

func (f *fleet) closeStreams() {
	for _, w := range f.workers {
		_ = w.ls.Close() // ends a blocked Next; the lease state is discarded with the daemon
	}
}

// collect folds the workers' client-side counts into r.
func (f *fleet) collect(r *roundResult) {
	for _, w := range f.workers {
		r.reportAcks = append(r.reportAcks, w.acks...)
		r.frames += w.frames
		r.emptyFrames += w.emptyFrames
		r.batches += w.batches
		r.reports += w.reports
		r.attempted += w.reports
		if w.rejected > 0 {
			r.failed += w.rejected
			r.problem("worker %s: %d report items not accepted", w.id, w.rejected)
		}
	}
}
