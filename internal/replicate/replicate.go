// Package replicate implements hot-standby WAL replication for
// gridschedd: a leader streams journal frames to followers over one
// long-lived chunked HTTP response, and a follower persists them through
// its own journal.Writer and applies them through the recovery code the
// single-node gauntlet already proves bit-exact, so that promotion is
// nothing more than recovery's last step.
//
// # Wire format
//
// The stream is a sequence of messages, each a single JSON header line
// terminated by '\n', optionally followed by exactly Size raw bytes:
//
//	{"type":"snapshot","lsn":<lastLSN>,"size":<n>}\n<n snapshot bytes>
//	{"type":"frame","lsn":<lsn>,"size":<n>}\n<n record-payload bytes>
//	{"type":"heartbeat","lsn":<leader lastLSN>}\n
//
// Frame payloads are the journal record payloads — NOT the on-disk frame
// encoding; the follower's own Writer reframes them, which is what makes
// the LSN handshake airtight: the follower's writer assigns exactly the
// streamed LSN or the follower halts.
//
// # Resumption and catch-up
//
// A follower connects with ?from=<lsn>, the last LSN it holds. The
// leader serves lsn+1, lsn+2, … from its live WAL via a tail-following
// reader (journal.TailReader). Compaction keeps every frame past the
// snapshot's LSN, so a follower already past it keeps tailing. When the
// requested position was compacted away, the leader ships its current
// snapshot file first ("snapshot" message, lsn = the LSN the snapshot
// covers) and resumes framing from there. Heartbeats flow whenever the stream is
// idle so the follower can measure lag and detect leader death.
//
// # Safety
//
// The follower applies a frame only when its LSN is exactly one past the
// last applied; a gap or regressing snapshot is a protocol violation and
// the stream halts (ErrDiverged) rather than writing a log that disagrees
// with the leader's. Duplicated frames at or below the applied position
// (redelivery after reconnect) are skipped. See docs/REPLICATION.md.
package replicate

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"gridsched/internal/journal"
)

// Message types.
const (
	TypeSnapshot  = "snapshot"
	TypeFrame     = "frame"
	TypeHeartbeat = "heartbeat"
)

// MaxSnapshotLen bounds a streamed snapshot body.
const MaxSnapshotLen = 1 << 30

// maxHeaderLine bounds one JSON header line.
const maxHeaderLine = 4096

// ErrDiverged marks a protocol violation that could make the follower's
// log disagree with the leader's — an LSN gap, a regressing snapshot, a
// malformed header. The follower halts the stream instead of applying.
var ErrDiverged = errors.New("replicate: stream diverged")

// Header is the JSON header line of one stream message.
type Header struct {
	Type string `json:"type"`
	LSN  uint64 `json:"lsn"`
	Size int64  `json:"size,omitempty"`
}

// Msg is one decoded stream message. Payload aliases a reused buffer:
// valid only until the next Decoder.Next call.
type Msg struct {
	Type    string
	LSN     uint64
	Payload []byte
}

// Encoder writes stream messages. Not safe for concurrent use.
type Encoder struct {
	w  *bufio.Writer
	hd []byte
}

// NewEncoder wraps w.
func NewEncoder(w io.Writer) *Encoder {
	return &Encoder{w: bufio.NewWriterSize(w, 32<<10)}
}

func (e *Encoder) header(h Header) error {
	b, err := json.Marshal(h)
	if err != nil {
		return err
	}
	e.hd = append(e.hd[:0], b...)
	e.hd = append(e.hd, '\n')
	_, err = e.w.Write(e.hd)
	return err
}

// Frame writes one journal frame.
func (e *Encoder) Frame(lsn uint64, payload []byte) error {
	if err := e.header(Header{Type: TypeFrame, LSN: lsn, Size: int64(len(payload))}); err != nil {
		return err
	}
	_, err := e.w.Write(payload)
	return err
}

// Snapshot writes a snapshot catch-up message; lsn is the LSN the
// snapshot covers.
func (e *Encoder) Snapshot(lsn uint64, data []byte) error {
	if err := e.header(Header{Type: TypeSnapshot, LSN: lsn, Size: int64(len(data))}); err != nil {
		return err
	}
	_, err := e.w.Write(data)
	return err
}

// Heartbeat writes a liveness/lag beacon carrying the leader's last LSN.
func (e *Encoder) Heartbeat(lastLSN uint64) error {
	return e.header(Header{Type: TypeHeartbeat, LSN: lastLSN})
}

// Flush pushes buffered bytes to the underlying writer.
func (e *Encoder) Flush() error { return e.w.Flush() }

// Decoder reads stream messages. Not safe for concurrent use.
type Decoder struct {
	r   *bufio.Reader
	buf []byte
}

// NewDecoder wraps r.
func NewDecoder(r io.Reader) *Decoder {
	return &Decoder{r: bufio.NewReaderSize(r, 32<<10)}
}

// Next decodes one message. io.EOF at a message boundary means the
// stream ended cleanly; every malformed input maps to ErrDiverged.
func (d *Decoder) Next() (Msg, error) {
	line, err := d.r.ReadSlice('\n')
	if err != nil {
		if errors.Is(err, io.EOF) && len(line) == 0 {
			return Msg{}, io.EOF
		}
		if errors.Is(err, bufio.ErrBufferFull) {
			return Msg{}, fmt.Errorf("%w: header line exceeds %d bytes", ErrDiverged, maxHeaderLine)
		}
		if errors.Is(err, io.EOF) {
			return Msg{}, io.ErrUnexpectedEOF
		}
		return Msg{}, err
	}
	if len(line) > maxHeaderLine {
		return Msg{}, fmt.Errorf("%w: header line exceeds %d bytes", ErrDiverged, maxHeaderLine)
	}
	var h Header
	if err := json.Unmarshal(line, &h); err != nil {
		return Msg{}, fmt.Errorf("%w: bad header: %v", ErrDiverged, err)
	}
	var limit int64
	switch h.Type {
	case TypeFrame:
		limit = journal.MaxRecordLen
	case TypeSnapshot:
		limit = MaxSnapshotLen
	case TypeHeartbeat:
		if h.Size != 0 {
			return Msg{}, fmt.Errorf("%w: heartbeat with body", ErrDiverged)
		}
		return Msg{Type: h.Type, LSN: h.LSN}, nil
	default:
		return Msg{}, fmt.Errorf("%w: unknown message type %q", ErrDiverged, h.Type)
	}
	if h.Size < 0 || h.Size > limit {
		return Msg{}, fmt.Errorf("%w: %s size %d out of bounds", ErrDiverged, h.Type, h.Size)
	}
	if int64(cap(d.buf)) < h.Size {
		d.buf = make([]byte, h.Size)
	}
	d.buf = d.buf[:h.Size]
	if _, err := io.ReadFull(d.r, d.buf); err != nil {
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			return Msg{}, io.ErrUnexpectedEOF
		}
		return Msg{}, err
	}
	return Msg{Type: h.Type, LSN: h.LSN, Payload: d.buf}, nil
}
