package workload

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// Write serializes the workload as JSON to w, newline-terminated — the
// bytes a json.Encoder would write.
func (w *Workload) Write(out io.Writer) error {
	bw := bufio.NewWriter(out)
	if err := w.WriteJSON(bw); err != nil {
		return fmt.Errorf("workload: encode: %w", err)
	}
	if err := bw.WriteByte('\n'); err != nil {
		return fmt.Errorf("workload: encode: %w", err)
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("workload: flush: %w", err)
	}
	return nil
}

// Read parses a JSON workload trace and validates it.
func Read(in io.Reader) (*Workload, error) {
	var w Workload
	dec := json.NewDecoder(bufio.NewReader(in))
	if err := dec.Decode(&w); err != nil {
		return nil, fmt.Errorf("workload: decode: %w", err)
	}
	if err := w.Validate(); err != nil {
		return nil, err
	}
	return &w, nil
}

// SaveFile writes the workload trace to path.
func (w *Workload) SaveFile(path string) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("workload: %w", err)
	}
	defer func() {
		if cerr := f.Close(); cerr != nil && err == nil {
			err = fmt.Errorf("workload: close: %w", cerr)
		}
	}()
	return w.Write(f)
}

// LoadFile reads a workload trace from path.
func LoadFile(path string) (*Workload, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("workload: %w", err)
	}
	defer f.Close()
	return Read(f)
}
