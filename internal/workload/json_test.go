package workload

import (
	"bytes"
	"encoding/json"
	"testing"
)

// jsonCases covers the shapes AppendJSON must encode exactly as
// encoding/json does: nil and empty slices, escaped names, non-ASCII
// text, invalid UTF-8 and the separators JavaScript treats as newlines.
func jsonCases(t *testing.T) []*Workload {
	t.Helper()
	cfg := CoaddSmallConfig(3)
	cfg.Tasks = 300
	coadd, err := GenerateCoadd(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return []*Workload{
		coadd,
		{Name: "", NumFiles: 0},
		{Name: "empty", NumFiles: 1, Tasks: []Task{}},
		{Name: "nil files", NumFiles: 2, Tasks: []Task{{ID: 0}, {ID: 1, Files: []FileID{}}}},
		{Name: `quotes "and" \back\slashes`, NumFiles: 3, Tasks: []Task{{ID: 0, Files: []FileID{2, 0}}}},
		{Name: "<script>&amp;</script>", NumFiles: -4},
		{Name: "ctl \x00\x01\b\f\n\r\t\x1f\x7f", NumFiles: 1},
		{Name: "Coadd — Ωmega 東京 🚀", NumFiles: 1 << 40},
		{Name: "bad utf8 \xff\xfe \xe2\x28\xa1", NumFiles: 1},
		{Name: "sep \u2028 and \u2029", NumFiles: 1},
	}
}

func TestAppendJSONMatchesEncodingJSON(t *testing.T) {
	for _, w := range jsonCases(t) {
		want, err := json.Marshal(w)
		if err != nil {
			t.Fatal(err)
		}
		if got := w.AppendJSON(nil); !bytes.Equal(got, want) {
			t.Errorf("%q: AppendJSON\n got %.200s\nwant %.200s", w.Name, got, want)
		}
		// Appending keeps whatever dst already held.
		if got := w.AppendJSON([]byte("prefix")); !bytes.Equal(got, append([]byte("prefix"), want...)) {
			t.Errorf("%q: AppendJSON clobbered its prefix", w.Name)
		}
		var buf bytes.Buffer
		if err := w.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), want) {
			t.Errorf("%q: WriteJSON differs from encoding/json", w.Name)
		}
	}
}

// TestJSONSizeHintAvoidsGrowth: a buffer sized by JSONSizeHint holds the
// whole encoding of a valid workload, so the encoder never reallocates.
func TestJSONSizeHintAvoidsGrowth(t *testing.T) {
	coadd := jsonCases(t)[0]
	for _, w := range []*Workload{
		coadd,
		{Name: "one", NumFiles: 1, Tasks: []Task{{ID: 0, Files: []FileID{0}}}},
		{Name: "wide ids", NumFiles: 100000, Tasks: []Task{{ID: 0, Files: []FileID{99999, 10}}, {ID: 1, Files: []FileID{9}}}},
	} {
		if err := w.Validate(); err != nil {
			t.Fatal(err)
		}
		hint := w.JSONSizeHint()
		got := w.AppendJSON(make([]byte, 0, hint))
		if cap(got) != hint {
			t.Errorf("%q: %d encoded bytes outgrew the hint %d", w.Name, len(got), hint)
		}
	}
}

// TestWriteMatchesEncoder: the trace file format is what a json.Encoder
// wrote before the reflection-free encoder replaced it.
func TestWriteMatchesEncoder(t *testing.T) {
	for _, w := range jsonCases(t) {
		var want, got bytes.Buffer
		if err := json.NewEncoder(&want).Encode(w); err != nil {
			t.Fatal(err)
		}
		if err := w.Write(&got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Errorf("%q: Write differs from json.Encoder", w.Name)
		}
	}
}

// FuzzAppendJSON checks byte equality with encoding/json over arbitrary
// names (quotes, HTML characters, non-ASCII and invalid UTF-8 included)
// and file lists.
func FuzzAppendJSON(f *testing.F) {
	f.Add("coadd", 10, []byte{1, 2, 3})
	f.Add(`"quoted" <b>&</b>`, 3, []byte{})
	f.Add("Ωmega 東京 \u2028\u2029", -1, []byte{255, 0})
	f.Add("\xff\xc0\x80 tail", 0, []byte{7})
	f.Fuzz(func(t *testing.T, name string, numFiles int, files []byte) {
		w := &Workload{Name: name, NumFiles: numFiles}
		for i, b := range files {
			fs := make([]FileID, int(b)%5)
			for k := range fs {
				fs[k] = FileID(int(b)*31 + k - 200)
			}
			if b == 0 {
				fs = nil
			}
			w.Tasks = append(w.Tasks, Task{ID: TaskID(i), Files: fs})
		}
		want, err := json.Marshal(w)
		if err != nil {
			t.Fatal(err)
		}
		if got := w.AppendJSON(nil); !bytes.Equal(got, want) {
			t.Fatalf("AppendJSON\n got %s\nwant %s", got, want)
		}
	})
}

func TestValidateErrorMessages(t *testing.T) {
	cases := []struct {
		w    Workload
		want string
	}{
		{Workload{Name: "w", NumFiles: 0}, `workload "w": NumFiles = 0`},
		{Workload{Name: "w", NumFiles: 3, Tasks: []Task{{ID: 4, Files: []FileID{0}}}}, `workload "w": task 0 has id 4`},
		{Workload{Name: "w", NumFiles: 3, Tasks: []Task{{ID: 0, Files: []FileID{0}}, {ID: 1}}}, `workload "w": task 1 has no files`},
		{Workload{Name: "w", NumFiles: 3, Tasks: []Task{{ID: 0, Files: []FileID{1, 3}}}}, `workload "w": task 0 references file 3 outside [0,3)`},
		{Workload{Name: "w", NumFiles: 3, Tasks: []Task{{ID: 0, Files: []FileID{-1}}}}, `workload "w": task 0 references file -1 outside [0,3)`},
		{Workload{Name: "w", NumFiles: 3, Tasks: []Task{{ID: 0, Files: []FileID{0, 2}}, {ID: 1, Files: []FileID{2, 1, 2}}}}, `workload "w": task 1 references file 2 twice`},
		// The first error in task order wins, as before.
		{Workload{Name: "w", NumFiles: 3, Tasks: []Task{{ID: 0, Files: []FileID{1, 1}}, {ID: 1, Files: []FileID{9}}}}, `workload "w": task 0 references file 1 twice`},
	}
	for _, c := range cases {
		err := c.w.Validate()
		if err == nil || err.Error() != c.want {
			t.Errorf("Validate() = %v, want %q", err, c.want)
		}
	}
	// Files shared between tasks are not duplicates.
	ok := Workload{Name: "w", NumFiles: 3, Tasks: []Task{{ID: 0, Files: []FileID{0, 1}}, {ID: 1, Files: []FileID{1, 0, 2}}, {ID: 2, Files: []FileID{0}}}}
	if err := ok.Validate(); err != nil {
		t.Fatalf("shared files rejected: %v", err)
	}
}

func BenchmarkValidateCoadd(b *testing.B) {
	w, err := GenerateCoadd(CoaddSmallConfig(1))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := w.Validate(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEncodeCoadd(b *testing.B) {
	w, err := GenerateCoadd(CoaddSmallConfig(1))
	if err != nil {
		b.Fatal(err)
	}
	var buf []byte
	b.Run("encoding-json", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := json.Marshal(w); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("append-json", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			buf = w.AppendJSON(buf[:0])
		}
	})
}
