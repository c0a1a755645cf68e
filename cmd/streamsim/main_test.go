package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"ecavs"
)

func TestRunDefault(t *testing.T) {
	if err := run([]string{"-trace", "1", "-algo", "ours"}); err != nil {
		t.Fatalf("run: %v", err)
	}
}

func TestRunAllPolicies(t *testing.T) {
	for _, algo := range []string{"youtube", "festive", "bba", "bola", "mpc", "optimal"} {
		if err := run([]string{"-trace", "2", "-algo", algo}); err != nil {
			t.Errorf("run(%s): %v", algo, err)
		}
	}
}

func TestRunVerbose(t *testing.T) {
	if err := run([]string{"-trace", "1", "-algo", "youtube", "-v"}); err != nil {
		t.Fatalf("run -v: %v", err)
	}
}

func TestRunErrors(t *testing.T) {
	if err := run([]string{"-trace", "9"}); err == nil {
		t.Error("trace id out of range accepted")
	}
	if err := run([]string{"-algo", "bogus"}); err == nil {
		t.Error("unknown policy accepted")
	}
	if err := run([]string{"-algo", "ours", "-alpha", "7"}); err == nil {
		t.Error("out-of-range alpha accepted")
	}
	if err := run([]string{"-bogus"}); err == nil {
		t.Error("bad flag accepted")
	}
	if err := run([]string{"-trace-out", "-", "-trace-cap", "8"}); err == nil {
		t.Error("-trace-cap accepted; the trace is the whole segment log")
	}
}

func TestRunFromSavedTraceDir(t *testing.T) {
	dir := t.TempDir()
	traces, err := genTraces(t)
	if err != nil {
		t.Fatal(err)
	}
	if err := traces[0].Save(dir); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-trace", "1", "-dir", dir, "-algo", "youtube"}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-trace", "9", "-dir", dir}); err == nil {
		t.Error("missing trace in dir accepted")
	}
}

func genTraces(t *testing.T) ([]*ecavs.Trace, error) {
	t.Helper()
	return ecavs.GenerateTableVTraces()
}

// traceOut runs streamsim with -trace-out into a temporary file plus
// the given flags and returns the file's contents.
func traceOut(t *testing.T, args ...string) []byte {
	t.Helper()
	out := filepath.Join(t.TempDir(), "decisions.ndjson")
	if err := run(append(args, "-trace-out", out)); err != nil {
		t.Fatalf("run %v: %v", args, err)
	}
	b, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestTraceOutPinned pins the decision trace byte for byte: the SHA-256
// of two outputs recorded when a sampled decision recorder, not the
// segment log, wrote them.
func TestTraceOutPinned(t *testing.T) {
	for _, tc := range []struct {
		args  []string
		lines int
		sum   string
	}{
		{[]string{"-trace", "1", "-algo", "ours"}, 99, "df20ce8b78adbf34c2ef30e221338b59a1ed961a6f73e6474f60e5554701465f"},
		{[]string{"-trace", "3", "-algo", "festive", "-trace-sample", "10"}, 23, "be741a0b339e28f62d385aee5c187ec9a6c2e6f4e18d05d30dc338149a31fe7a"},
	} {
		b := traceOut(t, tc.args...)
		sum := sha256.Sum256(b)
		if got := hex.EncodeToString(sum[:]); got != tc.sum {
			t.Errorf("%v: SHA-256 %s, want %s", tc.args, got, tc.sum)
		}
		if got := bytes.Count(b, []byte("\n")); got != tc.lines {
			t.Errorf("%v: %d lines, want %d", tc.args, got, tc.lines)
		}
	}
}

// TestTraceOutFormat checks the NDJSON an offline tool reads: one
// object per line with the keys in order, every sample-th segment of
// the log and none else, and a sample below 1 meaning every segment.
func TestTraceOutFormat(t *testing.T) {
	traces, err := genTraces(t)
	if err != nil {
		t.Fatal(err)
	}
	m, err := ecavs.Stream(traces[1], ecavs.NewBBA())
	if err != nil {
		t.Fatal(err)
	}
	n := len(m.Segments)
	keys := []string{"segment", "rung", "bitrate_mbps", "buffer_sec", "signal_dbm", "vibration", "power_w", "qoe"}
	every := traceOut(t, "-trace", "2", "-algo", "bba")
	for _, sample := range []int{1, 4, 7} {
		b := traceOut(t, "-trace", "2", "-algo", "bba", "-trace-sample", strconv.Itoa(sample))
		sc := bufio.NewScanner(bytes.NewReader(b))
		lines := 0
		for ; sc.Scan(); lines++ {
			dec := json.NewDecoder(bytes.NewReader(sc.Bytes()))
			var got []string
			if tok, err := dec.Token(); err != nil || tok != json.Delim('{') {
				t.Fatalf("sample %d line %d: not an object: %v %v", sample, lines+1, tok, err)
			}
			var segment int
			for dec.More() {
				tok, err := dec.Token()
				if err != nil {
					t.Fatal(err)
				}
				got = append(got, tok.(string))
				var v float64
				if err := dec.Decode(&v); err != nil {
					t.Fatalf("sample %d line %d: %q: %v", sample, lines+1, tok, err)
				}
				if tok == "segment" {
					segment = int(v)
				}
			}
			if strings.Join(got, ",") != strings.Join(keys, ",") {
				t.Errorf("sample %d line %d: keys %v, want %v", sample, lines+1, got, keys)
			}
			if want := lines * sample; segment != want {
				t.Errorf("sample %d line %d: segment %d, want %d", sample, lines+1, segment, want)
			}
		}
		if want := (n + sample - 1) / sample; lines != want {
			t.Errorf("sample %d: %d lines for %d segments, want %d", sample, lines, n, want)
		}
	}
	for _, sample := range []string{"0", "-3"} {
		if b := traceOut(t, "-trace", "2", "-algo", "bba", "-trace-sample", sample); !bytes.Equal(b, every) {
			t.Errorf("-trace-sample %s differs from every decision", sample)
		}
	}
}

// failAfterWriter accepts n writes, then fails every later one: a full
// disk or a closed pipe mid-export.
type failAfterWriter struct {
	n   int
	err error
}

func (w *failAfterWriter) Write(p []byte) (int, error) {
	if w.n <= 0 {
		return 0, w.err
	}
	w.n--
	return len(p), nil
}

// TestTraceWriteFailure pins the export's error: a failing writer stops
// it at once with an error that wraps the cause and names the segment
// whose line was lost.
func TestTraceWriteFailure(t *testing.T) {
	traces, err := genTraces(t)
	if err != nil {
		t.Fatal(err)
	}
	m, err := ecavs.Stream(traces[0], ecavs.NewFESTIVE())
	if err != nil {
		t.Fatal(err)
	}
	cause := errors.New("disk full")
	for _, tc := range []struct{ failAt, sample, segment int }{{0, 1, 0}, {2, 1, 2}, {2, 5, 10}} {
		w := &failAfterWriter{n: tc.failAt, err: cause}
		werr := writeDecisions(w, m, tc.sample)
		if !errors.Is(werr, cause) {
			t.Fatalf("line %d, sample %d: error %v does not wrap the cause", tc.failAt, tc.sample, werr)
		}
		if want := "write decision trace at segment " + strconv.Itoa(tc.segment) + ":"; !strings.Contains(werr.Error(), want) {
			t.Errorf("error %q does not name segment %d", werr, tc.segment)
		}
	}
	if err := run([]string{"-trace-out", filepath.Join(t.TempDir(), "missing", "x.ndjson")}); err == nil {
		t.Error("unwritable -trace-out accepted")
	}
}
