package replicate

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"os"
	"time"

	"gridsched/internal/journal"
)

// Source streams a leader's WAL to one follower connection. The fields
// point at the live journal owned by internal/service; Serve never takes
// a service lock — it reads the WAL file and the snapshot file the same
// way recovery would, synchronized only by the writer's append
// notifications and compaction counter.
type Source struct {
	// WALPath and SnapshotPath locate the leader's live journal.
	WALPath      string
	SnapshotPath string
	// LastLSN, Notify and Rotations come from the live journal.Writer.
	LastLSN   func() uint64
	Notify    func() <-chan struct{}
	Rotations func() uint64
	// Done, when closed, ends the stream (service shutdown). Optional.
	Done <-chan struct{}
	// Heartbeat is the idle beacon cadence; 0 picks 1s.
	Heartbeat time.Duration
	// OnFrame, if set, is called once per streamed frame (metrics).
	OnFrame func()
}

// snapshotHeader is the one field of the service snapshot the streamer
// needs: the LSN it covers.
type snapshotHeader struct {
	LastLSN uint64 `json:"lastLsn"`
}

// readSnapshot loads the current snapshot file, if any, and the LSN it
// covers. The file is replaced atomically (rename), so a read sees a
// complete old or new snapshot, never a torn one.
func readSnapshot(path string) (lsn uint64, data []byte, ok bool, err error) {
	data, err = os.ReadFile(path)
	if os.IsNotExist(err) {
		return 0, nil, false, nil
	}
	if err != nil {
		return 0, nil, false, err
	}
	var h snapshotHeader
	if err := json.Unmarshal(data, &h); err != nil {
		return 0, nil, false, err
	}
	return h.LastLSN, data, true, nil
}

// Serve streams frames with LSN > from to w until ctx or Done ends, or a
// write fails (follower gone). When the WAL tail no longer reaches the
// requested position — a compaction dropped it — the current snapshot is
// shipped instead and framing resumes past it.
func (s *Source) Serve(ctx context.Context, w io.Writer, from uint64) error {
	enc := NewEncoder(w)
	flush := func() error {
		if err := enc.Flush(); err != nil {
			return err
		}
		if f, ok := w.(interface{ Flush() }); ok {
			f.Flush()
		}
		return nil
	}
	hb := s.Heartbeat
	if hb <= 0 {
		hb = time.Second
	}
	tick := time.NewTicker(hb)
	defer tick.Stop()

	// Immediate heartbeat: the follower learns the leader's position (and
	// that the stream is live) before the first frame.
	if err := enc.Heartbeat(s.LastLSN()); err != nil {
		return err
	}
	if err := flush(); err != nil {
		return err
	}

	next := from + 1
	for {
		if err := s.interrupted(ctx); err != nil {
			return err
		}
		// Snapshot catch-up: whenever the snapshot already covers the
		// position we owe, it is both the only complete source (the tail
		// may have been compacted) and the cheapest one.
		snapLSN, data, ok, err := readSnapshot(s.SnapshotPath)
		if err != nil {
			return err
		}
		if ok && snapLSN >= next {
			if err := enc.Snapshot(snapLSN, data); err != nil {
				return err
			}
			if err := flush(); err != nil {
				return err
			}
			next = snapLSN + 1
			continue
		}
		// Subscribe before opening the tail so an append between "no WAL
		// yet" and the wait cannot be missed, and read the compaction
		// count before it too: a compaction after the open leaves the
		// reader on a file that no longer grows, and only a count read
		// earlier can tell.
		notify := s.Notify()
		epoch := s.Rotations()
		tr, err := journal.OpenTail(s.WALPath, next-1)
		if err != nil {
			if !os.IsNotExist(err) {
				return err
			}
			if err := s.idle(ctx, enc, flush, notify, tick.C); err != nil {
				return err
			}
			continue
		}
		err = s.followTail(ctx, enc, flush, tr, epoch, &next, tick.C)
		_ = tr.Close()
		if err != nil {
			return err
		}
		// nil: compaction or gap — loop and re-resolve. A follower past
		// the compaction mark reopens the tail where it was; one behind
		// it gets the snapshot.
	}
}

// followTail streams consecutive frames from tr until a compaction
// (Rotations moving past epoch) or an LSN gap invalidates it — returning
// nil so the caller re-resolves — or a real error ends the stream.
func (s *Source) followTail(ctx context.Context, enc *Encoder, flush func() error, tr *journal.TailReader, epoch uint64, next *uint64, tick <-chan time.Time) error {
	for {
		if err := s.interrupted(ctx); err != nil {
			return err
		}
		if s.Rotations() != epoch {
			return nil
		}
		notify := s.Notify()
		lsn, payload, err := tr.Next()
		switch {
		case err == nil:
			if lsn != *next {
				// The tail starts past the position we owe: it was
				// compacted; the snapshot has it.
				return nil
			}
			if err := enc.Frame(lsn, payload); err != nil {
				return err
			}
			*next = lsn + 1
			if s.OnFrame != nil {
				s.OnFrame()
			}
		case errors.Is(err, journal.ErrNoFrame):
			// Drained: push what we buffered, then wait for more.
			if err := flush(); err != nil {
				return err
			}
			if err := s.idle(ctx, enc, flush, notify, tick); err != nil {
				return err
			}
		case errors.Is(err, journal.ErrRotated):
			return nil
		default:
			return err
		}
	}
}

// idle waits for an append, a heartbeat tick, or shutdown.
func (s *Source) idle(ctx context.Context, enc *Encoder, flush func() error, notify <-chan struct{}, tick <-chan time.Time) error {
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-s.done():
		return errStreamDone
	case <-notify:
		return nil
	case <-tick:
		if err := enc.Heartbeat(s.LastLSN()); err != nil {
			return err
		}
		return flush()
	}
}

var errStreamDone = errors.New("replicate: source shut down")

func (s *Source) done() <-chan struct{} { return s.Done }

func (s *Source) interrupted(ctx context.Context) error {
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-s.done():
		return errStreamDone
	default:
		return nil
	}
}
