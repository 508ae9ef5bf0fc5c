package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"gridsched/internal/journal"
	"gridsched/internal/metrics"
	"gridsched/internal/replicate"
	"gridsched/internal/service/api"
)

// Follower is a hot standby. It streams the leader's WAL
// (internal/replicate), persists every frame through its own journal
// writer, and applies it to a replica Service through the same apply step
// New runs over a journal tail: the replica is a recovery that keeps
// going. Its schedulers, site stores and fair-share state are the real
// ones, so it serves job status exactly as the leader does at the same
// LSN, and tenant status up to the leader's liveness fields (leases in
// flight, share window, throttles); mutations get a leader redirect.
// Promote stops the stream and runs recovery's finish step on the
// replica, returning it as a live leader Service without reading the
// journal again.
type Follower struct {
	svcCfg Config // normalized; the replica's configuration
	cfg    FollowerConfig

	repl *metrics.ReplicationCounters
	jmet *journal.Metrics

	// svc is the replica. Reads load it without f.mu: they take the locks
	// apply takes. ApplySnapshot swaps in a rebuilt one.
	svc atomic.Pointer[Service]

	mu     sync.Mutex // serializes apply, snapshot install, promotion, close
	halted error      // terminal stream failure; nil while healthy
	closed bool

	last        atomic.Uint64 // last LSN applied locally
	leaderLSN   atomic.Uint64
	lastContact atomic.Int64 // unix nanos of the last leader contact
	promoting   atomic.Bool
	promoted    atomic.Bool

	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{}
}

// FollowerConfig parameterizes the replication client side of a Follower;
// the service side (data dir, fsync mode, topology — everything promotion
// needs) comes from the Config passed alongside it.
type FollowerConfig struct {
	// Leader is the leader's base URL (e.g. "http://10.0.0.1:8080").
	Leader string
	// Token, when non-empty, is the bearer token presented on the stream
	// request; it must resolve to an admin principal on the leader.
	Token string
	// HTTPClient performs the stream request. It must have NO client-level
	// timeout (the stream is long-lived). Nil picks a default.
	HTTPClient *http.Client
	// ReconnectMax caps the backoff between stream reconnect attempts.
	// 0 picks 2s.
	ReconnectMax time.Duration
}

// NewFollower opens (or resumes) the replicated data dir under cfg.DataDir
// and starts streaming from the leader. The local state is loaded by
// recovery's open step, so a data dir that New would refuse — another
// partition's, or a corrupt one — is refused here too.
func NewFollower(cfg Config, fcfg FollowerConfig) (*Follower, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	if cfg.DataDir == "" {
		return nil, fmt.Errorf("service: follower requires DataDir (it exists to replicate a journal)")
	}
	if fcfg.Leader == "" {
		return nil, fmt.Errorf("service: follower requires a leader URL")
	}
	if fcfg.HTTPClient == nil {
		fcfg.HTTPClient = &http.Client{}
	}
	if fcfg.ReconnectMax <= 0 {
		fcfg.ReconnectMax = 2 * time.Second
	}
	f := &Follower{
		svcCfg: cfg,
		cfg:    fcfg,
		repl:   &metrics.ReplicationCounters{},
		jmet:   &journal.Metrics{},
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
	}
	if err := f.openReplica(); err != nil {
		return nil, err
	}
	f.touchContact()
	go f.run()
	return f, nil
}

// openReplica builds the replica over the data dir with recovery's open
// step and installs it: the snapshot, the local log tail, and the writer
// the stream appends to.
func (f *Follower) openReplica() error {
	s, err := newService(f.svcCfg)
	if err != nil {
		return err
	}
	s.pst.journalMetrics = f.jmet // one series across snapshot installs
	if err := s.open(); err != nil {
		return err
	}
	f.svc.Store(s)
	f.last.Store(s.pst.w.LastLSN())
	f.repl.LocalLSN.Store(int64(s.pst.w.LastLSN()))
	return nil
}

func (f *Follower) touchContact() { f.lastContact.Store(time.Now().UnixNano()) }

// run is the reconnect loop: one replicate.Follow per connection, capped
// jittered-ish backoff between attempts, permanent halt on divergence.
func (f *Follower) run() {
	defer close(f.done)
	backoff := time.Duration(0)
	for {
		select {
		case <-f.stop:
			return
		default:
		}
		ctx, cancel := context.WithCancel(context.Background())
		go func() {
			select {
			case <-f.stop:
				cancel()
			case <-ctx.Done():
			}
		}()
		err := replicate.Follow(ctx, f.cfg.HTTPClient, f.cfg.Leader, f.cfg.Token, f.LastLSN(), f)
		cancel()
		select {
		case <-f.stop:
			return
		default:
		}
		if errors.Is(err, replicate.ErrDiverged) || errors.Is(err, errReplicaFailed) {
			// Halt rather than diverge: applying past a gap, a rewinding
			// snapshot, or a poisoned local journal could only produce a
			// log that disagrees with the leader's. The follower keeps
			// serving its replica of the valid prefix; an operator
			// restarts it to re-sync, or promotes it if the leader is gone
			// (unless the replica itself failed: see errReplicaFailed).
			f.mu.Lock()
			f.halted = err
			f.mu.Unlock()
			f.repl.Halted.Store(1)
			log.Printf("gridschedd: follower halted: %v", err)
			return
		}
		f.repl.Reconnects.Add(1)
		if backoff < 100*time.Millisecond {
			backoff = 100 * time.Millisecond
		} else {
			backoff *= 2
		}
		if backoff > f.cfg.ReconnectMax {
			backoff = f.cfg.ReconnectMax
		}
		select {
		case <-f.stop:
			return
		case <-time.After(backoff):
		}
	}
}

// errReplicaFailed marks a failure of the follower's own journal or
// replica. It ends the stream, and it refuses promotion: the replica no
// longer matches the log. Restarting the follower recovers it from the
// data dir.
var errReplicaFailed = errors.New("service: follower replica failed")

// ApplyFrame persists one streamed record and applies it to the replica.
// replicate.Replay has already proven lsn is exactly last+1.
func (f *Follower) ApplyFrame(lsn uint64, payload []byte) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	s := f.svc.Load()
	got, err := s.pst.w.Append(payload)
	if err != nil {
		return fmt.Errorf("%w: %v", errReplicaFailed, err)
	}
	if got != lsn {
		// The writer's LSN sequence is seeded from the replicated log, so
		// this can only mean local and leader histories disagree.
		return fmt.Errorf("%w: local writer assigned lsn %d, stream says %d", replicate.ErrDiverged, got, lsn)
	}
	if err := s.apply(lsn, payload); err != nil {
		// The bytes are durable and identical to the leader's; a recovery
		// over them would fail exactly as this apply did.
		return fmt.Errorf("%w: %w: %v", replicate.ErrDiverged, errReplicaFailed, err)
	}
	f.last.Store(lsn)
	f.repl.FramesApplied.Add(1)
	f.repl.LocalLSN.Store(int64(lsn))
	if l := f.leaderLSN.Load(); lsn > l {
		f.leaderLSN.Store(lsn)
		f.repl.LeaderLSN.Store(int64(lsn))
	}
	f.touchContact()
	return nil
}

// ApplySnapshot installs a full catch-up snapshot. A snapshot New would
// refuse (another version, another partition) is refused as divergence.
// Otherwise the snapshot file is replaced atomically, the local WAL
// restarts empty at the snapshot's LSN (the log a leader has after
// compacting with nothing appended since), and the replica is rebuilt
// from the new snapshot by recovery's open step.
func (f *Follower) ApplySnapshot(lsn uint64, data []byte) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	var snap snapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		return fmt.Errorf("%w: undecodable snapshot: %v", replicate.ErrDiverged, err)
	}
	if snap.LastLSN != lsn {
		return fmt.Errorf("%w: snapshot body covers lsn %d, header says %d", replicate.ErrDiverged, snap.LastLSN, lsn)
	}
	if err := f.svcCfg.checkSnapshot(&snap); err != nil {
		return fmt.Errorf("%w: %v", replicate.ErrDiverged, err)
	}
	old := f.svc.Load()
	if err := journal.WriteFileAtomic(old.snapshotPath(), data); err != nil {
		return fmt.Errorf("%w: %v", errReplicaFailed, err)
	}
	if err := old.pst.w.Close(); err != nil {
		log.Printf("gridschedd: follower journal close before snapshot reset: %v", err)
	}
	if err := os.Remove(old.walPath()); err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("%w: %v", errReplicaFailed, err)
	}
	if err := f.openReplica(); err != nil {
		return fmt.Errorf("%w: %v", errReplicaFailed, err)
	}
	f.repl.SnapshotsApplied.Add(1)
	f.touchContact()
	return nil
}

// Heartbeat records the leader's position (lag = leader - local).
func (f *Follower) Heartbeat(lastLSN uint64) {
	f.leaderLSN.Store(lastLSN)
	f.repl.LeaderLSN.Store(int64(lastLSN))
	f.touchContact()
}

// LastLSN is the last LSN the follower has applied.
func (f *Follower) LastLSN() uint64 { return f.last.Load() }

// LeaderLSN is the leader's last announced LSN.
func (f *Follower) LeaderLSN() uint64 { return f.leaderLSN.Load() }

// LastContact is when the follower last heard from the leader (frame,
// snapshot, or heartbeat) — the signal automatic promotion keys on.
func (f *Follower) LastContact() time.Time {
	return time.Unix(0, f.lastContact.Load())
}

// Halted reports the terminal divergence error, nil while healthy.
func (f *Follower) Halted() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.halted
}

// Promote flips the follower live: the stream stops and recovery's finish
// step runs on the replica — in-flight executions expire, the counters and
// the arbiter heap are rebuilt, a snapshot compacts the log — and the
// replica is returned as a live leader Service. The journal is not read
// again: the replica already holds every frame applied. The call is
// synchronous: when it returns, the Service answers traffic. A second
// call fails with 409; a follower whose own journal or replica failed
// refuses with 500.
func (f *Follower) Promote() (*Service, error) {
	if !f.promoting.CompareAndSwap(false, true) {
		return nil, errf(http.StatusConflict, "service: promotion already requested")
	}
	f.shutdownStream()
	f.mu.Lock()
	defer f.mu.Unlock()
	switch {
	case f.closed:
		return nil, errf(http.StatusConflict, "service: follower closed")
	case errors.Is(f.halted, errReplicaFailed):
		return nil, errf(http.StatusInternalServerError, "service: promotion refused: %v", f.halted)
	}
	s := f.svc.Load()
	if err := s.finish(); err != nil {
		f.halted = fmt.Errorf("%w: promotion failed: %v", errReplicaFailed, err)
		return nil, errf(http.StatusInternalServerError, "service: promotion failed: %v", err)
	}
	s.start()
	f.promoted.Store(true)
	return s, nil
}

// Promoted reports whether Promote succeeded.
func (f *Follower) Promoted() bool { return f.promoted.Load() }

func (f *Follower) shutdownStream() {
	f.stopOnce.Do(func() { close(f.stop) })
	<-f.done
}

// Close stops the stream and closes the local journal. Idempotent; a
// promoted follower's journal belongs to the promoted Service and is not
// touched.
func (f *Follower) Close() {
	f.shutdownStream()
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed || f.promoted.Load() {
		return
	}
	f.closed = true
	_ = f.svc.Load().pst.w.Close()
}

// lag is LeaderLSN - LastLSN, clamped at 0 (the follower can briefly know
// more than the last heartbeat announced).
func (f *Follower) lag() uint64 {
	local, leader := f.LastLSN(), f.LeaderLSN()
	if leader <= local {
		return 0
	}
	return leader - local
}

// Handler is the follower's HTTP surface: the leader's own read handlers
// over the replica, truthful probes, and a 421 + leader-redirect for
// everything mutating. Mount it behind the same ingress chain as a leader.
func (f *Follower) Handler() http.Handler {
	read := func(h func(*Service, http.ResponseWriter, *http.Request)) http.HandlerFunc {
		return func(w http.ResponseWriter, r *http.Request) { h(f.svc.Load(), w, r) }
	}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/jobs", read((*Service).handleJobs))
	mux.HandleFunc("GET /v1/jobs/{id}", read((*Service).handleJob))
	mux.HandleFunc("GET /v1/tenants", read((*Service).handleTenants))
	mux.HandleFunc("GET /healthz", read((*Service).handleHealthz))
	mux.HandleFunc("GET /readyz", f.handleReadyz)
	mux.HandleFunc("GET /metrics", f.handleMetrics)
	mux.HandleFunc("/", f.redirectToLeader)
	return mux
}

func (f *Follower) handleReadyz(w http.ResponseWriter, r *http.Request) {
	rd := api.Readiness{
		Status:    "ready",
		Role:      api.RoleFollower,
		LastLSN:   f.LastLSN(),
		LeaderLSN: f.LeaderLSN(),
		LagLSN:    f.lag(),
		Leader:    f.cfg.Leader,
	}
	w.Header().Set(api.LeaderHeader, f.cfg.Leader)
	writeJSON(w, http.StatusOK, rd)
}

func (f *Follower) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	_ = metrics.WriteReplicationText(w, api.RoleFollower, f.repl)
	fmt.Fprintf(w, "# TYPE gridsched_journal_records_total counter\ngridsched_journal_records_total %d\n",
		f.jmet.Records.Load())
	fmt.Fprintf(w, "# TYPE gridsched_journal_bytes_total counter\ngridsched_journal_bytes_total %d\n",
		f.jmet.Bytes.Load())
	fmt.Fprintf(w, "# TYPE gridsched_journal_fsyncs_total counter\ngridsched_journal_fsyncs_total %d\n",
		f.jmet.Fsyncs.Load())
}

// redirectToLeader answers every mutating (or unknown) request with 421
// Misdirected Request plus the leader's base URL — the hint the Go
// client's endpoint failover follows.
func (f *Follower) redirectToLeader(w http.ResponseWriter, r *http.Request) {
	w.Header().Set(api.LeaderHeader, f.cfg.Leader)
	writeJSON(w, http.StatusMisdirectedRequest, api.ErrorResponse{
		Error: fmt.Sprintf("follower: %s %s must go to the leader at %s", r.Method, r.URL.Path, f.cfg.Leader),
	})
}

// ReplicationCounters exposes the follower's metrics for embedding.
func (f *Follower) ReplicationCounters() *metrics.ReplicationCounters { return f.repl }
