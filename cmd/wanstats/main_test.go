package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"wantraffic/internal/cli"
	"wantraffic/internal/stats"
	"wantraffic/internal/stream"
	"wantraffic/internal/trace"
)

// writeTrace drops a small connection trace (with optional malformed
// lines) into a temp file and returns its path.
func writeTrace(t *testing.T, lines ...string) string {
	t.Helper()
	p := filepath.Join(t.TempDir(), "t.conn")
	if err := os.WriteFile(p, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

func goodTrace(t *testing.T) string {
	return writeTrace(t,
		"#conntrace tiny 3600",
		"1.0 2.0 TELNET 100 200 0",
		"5.0 1.5 SMTP 300 400 0",
	)
}

func damagedTrace(t *testing.T) string {
	return writeTrace(t,
		"#conntrace tiny 3600",
		"1.0 2.0 TELNET 100 200 0",
		"this line is garbage",
		"5.0 1.5 SMTP 300 400 0",
	)
}

func TestRunErrorPaths(t *testing.T) {
	cases := []struct {
		name string
		args []string
		code int
	}{
		{"no args", nil, cli.ExitUsage},
		{"two args", []string{"a", "b"}, cli.ExitUsage},
		{"unknown flag", []string{"-bogus"}, cli.ExitUsage},
		{"zero interval", []string{"-interval", "0", "x"}, cli.ExitUsage},
		{"negative bin", []string{"-bin", "-1", "x"}, cli.ExitUsage},
		{"zero max-line", []string{"-max-line-bytes", "0", "x"}, cli.ExitUsage},
		{"missing file", []string{"/nonexistent/path.conn"}, cli.ExitFailure},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var out, errw bytes.Buffer
			err := run(tc.args, &out, &errw)
			if got := cli.ExitCode(err); got != tc.code {
				t.Errorf("run(%v) exit %d, want %d (err: %v)", tc.args, got, tc.code, err)
			}
		})
	}
}

func TestStrictAbortsOnDamage(t *testing.T) {
	var out, errw bytes.Buffer
	err := run([]string{damagedTrace(t)}, &out, &errw)
	if got := cli.ExitCode(err); got != cli.ExitFailure {
		t.Fatalf("strict damaged trace: exit %d, want %d (err: %v)", got, cli.ExitFailure, err)
	}
}

func TestLenientIsPartialSuccess(t *testing.T) {
	var out, errw bytes.Buffer
	err := run([]string{"-lenient", damagedTrace(t)}, &out, &errw)
	if got := cli.ExitCode(err); got != cli.ExitPartial {
		t.Fatalf("lenient damaged trace: exit %d, want %d (err: %v)", got, cli.ExitPartial, err)
	}
	if !strings.Contains(out.String(), "1 skipped") {
		t.Errorf("decode accounting missing from output:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "2 connections") {
		t.Errorf("analysis should still run on the kept records:\n%s", out.String())
	}
}

func TestCleanTraceExitsZero(t *testing.T) {
	var out, errw bytes.Buffer
	err := run([]string{goodTrace(t)}, &out, &errw)
	if got := cli.ExitCode(err); got != cli.ExitOK {
		t.Fatalf("clean trace: exit %d, want 0 (err: %v)", got, err)
	}
	// Lenient on a clean trace is also a full success.
	err = run([]string{"-lenient", goodTrace(t)}, &out, &errw)
	if got := cli.ExitCode(err); got != cli.ExitOK {
		t.Fatalf("lenient clean trace: exit %d, want 0 (err: %v)", got, err)
	}
}

func TestUnrecognizedHeader(t *testing.T) {
	p := writeTrace(t, "not a trace at all", "second line")
	var out, errw bytes.Buffer
	err := run([]string{p}, &out, &errw)
	if got := cli.ExitCode(err); got != cli.ExitFailure {
		t.Fatalf("bogus header: exit %d, want %d (err: %v)", got, cli.ExitFailure, err)
	}
}

// TestJSONReportCarriesDecodeStats pins satellite: the machine-readable
// report embeds the full decode accounting that the plain-text path
// only showed in the preamble.
func TestJSONReportCarriesDecodeStats(t *testing.T) {
	var out, errw bytes.Buffer
	err := run([]string{"-lenient", "-json", damagedTrace(t)}, &out, &errw)
	if got := cli.ExitCode(err); got != cli.ExitPartial {
		t.Fatalf("lenient -json damaged trace: exit %d, want %d (err: %v)", got, cli.ExitPartial, err)
	}
	var rep struct {
		File    string `json:"file"`
		Kind    string `json:"kind"`
		Records int    `json:"records"`
		Decode  struct {
			LinesRead      int      `json:"lines_read"`
			RecordsKept    int      `json:"records_kept"`
			RecordsSkipped int      `json:"records_skipped"`
			BytesRead      int64    `json:"bytes_read"`
			Errors         []string `json:"errors"`
		} `json:"decode_stats"`
		Analysis string `json:"analysis"`
	}
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatalf("-json output is not valid JSON: %v\n%s", err, out.String())
	}
	if rep.Kind != "conn" || rep.Records != 2 {
		t.Errorf("kind=%q records=%d, want conn/2", rep.Kind, rep.Records)
	}
	if rep.Decode.RecordsSkipped != 1 || rep.Decode.RecordsKept != 2 {
		t.Errorf("decode_stats = %+v, want 2 kept / 1 skipped", rep.Decode)
	}
	if rep.Decode.BytesRead == 0 {
		t.Error("decode_stats.bytes_read missing")
	}
	if len(rep.Decode.Errors) != 1 || !strings.Contains(rep.Decode.Errors[0], "line 3") {
		t.Errorf("decode_stats.errors = %v, want the line-3 skip message", rep.Decode.Errors)
	}
	if !strings.Contains(rep.Analysis, "2 connections") {
		t.Errorf("analysis text missing from report: %q", rep.Analysis)
	}
	// Analysis text must not leak onto stdout outside the JSON.
	if !json.Valid(out.Bytes()) {
		t.Error("stdout holds more than the JSON document")
	}
}

// TestObsOutputsWritten pins the shared -metrics-out/-trace-out flags
// on a cmd tool: both files exist and parse.
func TestObsOutputsWritten(t *testing.T) {
	dir := t.TempDir()
	mOut := filepath.Join(dir, "m.json")
	tOut := filepath.Join(dir, "t.json")
	var out, errw bytes.Buffer
	err := run([]string{"-metrics-out", mOut, "-trace-out", tOut, goodTrace(t)}, &out, &errw)
	if got := cli.ExitCode(err); got != cli.ExitOK {
		t.Fatalf("exit %d, want 0 (err: %v)", got, err)
	}
	raw, err := os.ReadFile(mOut)
	if err != nil {
		t.Fatal(err)
	}
	var metrics struct {
		Counters map[string]int64 `json:"counters"`
	}
	if err := json.Unmarshal(raw, &metrics); err != nil {
		t.Fatalf("metrics snapshot invalid: %v\n%s", err, raw)
	}
	if metrics.Counters["trace.records.kept"] != 2 {
		t.Errorf("trace.records.kept = %d, want 2 (snapshot: %s)", metrics.Counters["trace.records.kept"], raw)
	}
	raw, err = os.ReadFile(tOut)
	if err != nil {
		t.Fatal(err)
	}
	var chrome struct {
		TraceEvents []struct {
			Name string `json:"name"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &chrome); err != nil {
		t.Fatalf("Chrome trace invalid: %v\n%s", err, raw)
	}
	names := map[string]bool{}
	for _, ev := range chrome.TraceEvents {
		names[ev.Name] = true
	}
	if !names["decode"] || !names["analyze"] {
		t.Errorf("trace export missing decode/analyze spans: %s", raw)
	}
}

// TestStreamMode pins the -stream satellite: the one-pass path
// produces a summary (text and JSON) with the same exit-code contract
// as the batch path.
func TestStreamMode(t *testing.T) {
	var out, errw bytes.Buffer
	if err := run([]string{"-stream", goodTrace(t)}, &out, &errw); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"bytes", "arrivals"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("stream summary missing %q:\n%s", want, out.String())
		}
	}

	out.Reset()
	err := run([]string{"-stream", "-lenient", "-json", damagedTrace(t)}, &out, &errw)
	if got := cli.ExitCode(err); got != cli.ExitPartial {
		t.Fatalf("stream lenient damaged trace: exit %d, want %d (err: %v)", got, cli.ExitPartial, err)
	}
	var rep struct {
		Kind   string `json:"kind"`
		Decode struct {
			RecordsSkipped int `json:"records_skipped"`
		} `json:"decode_stats"`
		Stream *struct {
			Records int64 `json:"records"`
		} `json:"stream"`
	}
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatalf("-stream -json output invalid: %v\n%s", err, out.String())
	}
	if rep.Kind != "conn" || rep.Stream == nil || rep.Stream.Records != 2 || rep.Decode.RecordsSkipped != 1 {
		t.Errorf("stream report = %+v, want conn, 2 streamed records, 1 skip", rep)
	}

	// Strict mode still aborts on damage.
	err = run([]string{"-stream", damagedTrace(t)}, &out, &errw)
	if got := cli.ExitCode(err); got != cli.ExitFailure {
		t.Fatalf("stream strict damaged trace: exit %d, want %d (err: %v)", got, cli.ExitFailure, err)
	}
}

// TestStreamConnWindowsSpanLongTrace: -bin is the packet count-process
// bin, so a conn trace summarized with -stream keeps its 1 s bins and
// its arrival windows cover a trace longer than the 2^22 bins of
// 0.01 s (11.65 h) that the default -bin would span. The windows must
// be stats.CountProcess at 1 s over every record.
func TestStreamConnWindowsSpanLongTrace(t *testing.T) {
	const horizon = 2 * 86400
	rng := rand.New(rand.NewSource(5))
	times := make([]float64, 3000)
	for i := range times {
		times[i] = float64(rng.Intn(horizon*8)) / 8 // exact in %g
	}
	times = append(times, horizon-0.5)
	sort.Float64s(times)
	lines := []string{fmt.Sprintf("#conntrace long %d", horizon)}
	for _, tm := range times {
		lines = append(lines, fmt.Sprintf("%g 1 TELNET 100 200 0", tm))
	}
	var out, errw bytes.Buffer
	if err := run([]string{"-stream", "-json", writeTrace(t, lines...)}, &out, &errw); err != nil {
		t.Fatal(err)
	}
	var rep struct {
		Stream *stream.Summary `json:"stream"`
	}
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil || rep.Stream == nil {
		t.Fatalf("-stream -json output invalid (%v):\n%s", err, out.String())
	}
	counts := stats.CountProcess(times, 1, horizon)
	mean := stats.Mean(counts)
	wantDisp := stats.Variance(counts) / mean
	var num, den float64
	for i, c := range counts {
		den += (c - mean) * (c - mean)
		if i+1 < len(counts) {
			num += (c - mean) * (counts[i+1] - mean)
		}
	}
	got := rep.Stream
	if got.Windows != horizon || got.Rate != float64(len(times))/horizon {
		t.Fatalf("windows %d at rate %g, want %d at %g", got.Windows, got.Rate, horizon, float64(len(times))/horizon)
	}
	if math.Abs(got.Dispersion-wantDisp) > 1e-9 || math.Abs(got.Lag1-num/den) > 1e-9 {
		t.Errorf("dispersion %g lag-1 %g, want %g and %g", got.Dispersion, got.Lag1, wantDisp, num/den)
	}
}

// TestStreamBinChecksPacketWindows: the 1 s windows of a packet
// summary are sums of -bin bins, so a -bin they cannot be summed from
// is a usage error on a packet trace and has no effect on a conn one.
func TestStreamBinChecksPacketWindows(t *testing.T) {
	pkt := filepath.Join(t.TempDir(), "t.pkt")
	if err := os.WriteFile(pkt, []byte("#pkttrace tiny 60\n1.5 512 TELNET 1\n2.25 40 TELNET 1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errw bytes.Buffer
	err := run([]string{"-stream", "-bin", "0.3", pkt}, &out, &errw)
	if cli.ExitCode(err) != cli.ExitUsage || !strings.Contains(fmt.Sprint(err), "whole multiple") {
		t.Fatalf("packet -stream -bin 0.3: exit %d (%v), want a usage error", cli.ExitCode(err), err)
	}
	if err := run([]string{"-stream", "-bin", "0.3", goodTrace(t)}, &out, &errw); err != nil {
		t.Fatalf("conn -stream -bin 0.3: %v", err)
	}
}

// TestBinaryTraceBothModes: the binary encoding must flow through
// both the batch methodology and the -stream pipeline, producing the
// same analysis as the text encoding of the same records.
func TestBinaryTraceBothModes(t *testing.T) {
	tr := &trace.ConnTrace{Name: "bin-both", Horizon: 3600}
	for i := 0; i < 300; i++ {
		tr.Conns = append(tr.Conns, trace.Conn{
			Start: float64(i) * 10, Duration: 3, Proto: trace.SMTP,
			BytesOrig: int64(50 + i), BytesResp: int64(20 * i),
		})
	}
	dir := t.TempDir()
	textPath := filepath.Join(dir, "b.conn")
	binPath := filepath.Join(dir, "b.wct")
	var buf bytes.Buffer
	if err := trace.WriteConnTrace(&buf, tr); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(textPath, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := trace.WriteConnTraceBinary(&buf, tr); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(binPath, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, mode := range [][]string{nil, {"-stream"}} {
		var textOut, binOut, errw bytes.Buffer
		if err := run(append(append([]string{}, mode...), textPath), &textOut, &errw); err != nil {
			t.Fatalf("mode %v text: %v", mode, err)
		}
		if err := run(append(append([]string{}, mode...), binPath), &binOut, &errw); err != nil {
			t.Fatalf("mode %v binary: %v", mode, err)
		}
		if textOut.String() != binOut.String() {
			t.Errorf("mode %v: binary analysis diverges from text:\n--- text\n%s--- binary\n%s",
				mode, textOut.String(), binOut.String())
		}
	}
}
