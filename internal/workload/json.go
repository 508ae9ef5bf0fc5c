package workload

import (
	"io"
	"strconv"
	"unicode/utf8"
)

// AppendJSON appends the JSON encoding of w to dst and returns the
// extended slice. The bytes are identical to json.Marshal(w); the encoder
// writes the fixed schema directly instead of walking it by reflection,
// which matters for workloads of thousands of tasks with tens of files
// each.
func (w *Workload) AppendJSON(dst []byte) []byte {
	dst, _ = w.encodeJSON(dst, nil)
	return dst
}

// JSONSizeHint returns a size for a buffer that AppendJSON fills without
// growing: an upper bound on its output for any workload that passes
// Validate and whose name needs no escaping.
func (w *Workload) JSONSizeHint() int {
	// {"id":<id>,"files":[...]}, plus the separating comma.
	perTask := len(`{"id":,"files":[]},`) + decimalDigits(len(w.Tasks))
	perFile := decimalDigits(w.NumFiles) + len(",")
	n := len(`{"name":"","numFiles":,"tasks":[]}`) + len(w.Name) + decimalDigits(w.NumFiles)
	for i := range w.Tasks {
		n += perTask + perFile*len(w.Tasks[i].Files)
	}
	return n
}

// decimalDigits returns the number of decimal digits of n >= 0.
func decimalDigits(n int) int {
	d := 1
	for ; n >= 10; n /= 10 {
		d++
	}
	return d
}

// WriteJSON writes the bytes AppendJSON would produce to out, a bounded
// chunk at a time, so encoding a large workload never holds all of it in
// memory.
func (w *Workload) WriteJSON(out io.Writer) error {
	buf, err := w.encodeJSON(make([]byte, 0, jsonChunk+512), out)
	if err != nil {
		return err
	}
	_, err = out.Write(buf)
	return err
}

// jsonChunk is how many encoded bytes WriteJSON gathers before it writes.
const jsonChunk = 32 << 10

// encodeJSON appends w's encoding to dst. With out set, every time dst
// passes jsonChunk it is written to out and restarted; the caller writes
// whatever remains.
func (w *Workload) encodeJSON(dst []byte, out io.Writer) ([]byte, error) {
	dst = append(dst, `{"name":`...)
	dst = appendJSONString(dst, w.Name)
	dst = append(dst, `,"numFiles":`...)
	dst = strconv.AppendInt(dst, int64(w.NumFiles), 10)
	dst = append(dst, `,"tasks":`...)
	if w.Tasks == nil {
		return append(dst, "null}"...), nil
	}
	dst = append(dst, '[')
	for i := range w.Tasks {
		t := &w.Tasks[i]
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, `{"id":`...)
		dst = strconv.AppendInt(dst, int64(t.ID), 10)
		dst = append(dst, `,"files":`...)
		if t.Files == nil {
			dst = append(dst, "null"...)
		} else {
			dst = append(dst, '[')
			for k, f := range t.Files {
				if k > 0 {
					dst = append(dst, ',')
				}
				dst = strconv.AppendInt(dst, int64(f), 10)
			}
			dst = append(dst, ']')
		}
		dst = append(dst, '}')
		if out != nil && len(dst) >= jsonChunk {
			if _, err := out.Write(dst); err != nil {
				return dst, err
			}
			dst = dst[:0]
		}
	}
	return append(dst, "]}"...), nil
}

const hexDigits = "0123456789abcdef"

// appendJSONString appends s as a JSON string exactly as encoding/json
// writes it: HTML-significant characters, control characters, U+2028 and
// U+2029 are escaped, and invalid UTF-8 becomes U+FFFD.
func appendJSONString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if b >= 0x20 && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		if c == utf8.RuneError && size == 1 {
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
			i += size
			start = i
			continue
		}
		if c == '\u2028' || c == '\u2029' {
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}
