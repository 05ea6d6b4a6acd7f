package trace

import (
	"bytes"
	"encoding/csv"
	"errors"
	"fmt"
	"reflect"
	"testing"
)

// checkCSV parses a writer's output with encoding/csv and compares it
// with the header and with one row per record, each field formatted by
// fmt.
func checkCSV(t *testing.T, data []byte, header []string, rows [][]any) {
	t.Helper()
	got, err := csv.NewReader(bytes.NewReader(data)).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(rows)+1 {
		t.Fatalf("%d rows, want header + %d", len(got), len(rows))
	}
	if !reflect.DeepEqual(got[0], header) {
		t.Fatalf("header %q, want %q", got[0], header)
	}
	for i, rec := range rows {
		want := make([]string, len(rec))
		for j, v := range rec {
			want[j] = fmt.Sprint(v)
		}
		if !reflect.DeepEqual(got[i+1], want) {
			t.Fatalf("row %d = %q, want %q", i+1, got[i+1], want)
		}
	}
}

func TestActivityCSVRoundTrip(t *testing.T) {
	orig := GenerateActivity(DefaultActivityConfig(6, 1))
	var buf bytes.Buffer
	if err := WriteActivityCSV(&buf, orig); err != nil {
		t.Fatal(err)
	}
	var rows [][]any
	for _, ev := range orig.Events {
		rows = append(rows, []any{int64(ev.T), ev.WS, ev.Active})
	}
	checkCSV(t, buf.Bytes(), []string{"t_ns", "workstation", "active"}, rows)
}

func TestJobsCSVRoundTrip(t *testing.T) {
	orig := GenerateJobs(DefaultJobTraceConfig(12 * 3600 * 1e9))
	var buf bytes.Buffer
	if err := WriteJobsCSV(&buf, orig); err != nil {
		t.Fatal(err)
	}
	var rows [][]any
	for _, j := range orig {
		rows = append(rows, []any{j.ID, int64(j.Arrive), j.Nodes, int64(j.Work), int64(j.CommGrain)})
	}
	checkCSV(t, buf.Bytes(), []string{"id", "arrive_ns", "nodes", "work_ns", "grain_ns"}, rows)
}

func TestFileAccessCSVRoundTrip(t *testing.T) {
	cfg := DefaultFileTraceConfig()
	cfg.Accesses = 500
	orig := GenerateFileTrace(cfg)
	var buf bytes.Buffer
	if err := WriteFileAccessCSV(&buf, orig); err != nil {
		t.Fatal(err)
	}
	var rows [][]any
	for _, a := range orig {
		rows = append(rows, []any{int64(a.T), a.Client, a.File, a.Block, a.Write})
	}
	checkCSV(t, buf.Bytes(), []string{"t_ns", "client", "file", "block", "write"}, rows)
}

func TestNFSCSVRoundTrip(t *testing.T) {
	orig := GenerateNFS(DefaultNFSTraceConfig())[:500]
	var buf bytes.Buffer
	if err := WriteNFSCSV(&buf, orig); err != nil {
		t.Fatal(err)
	}
	var rows [][]any
	for _, op := range orig {
		rows = append(rows, []any{op.RequestBytes, op.ReplyBytes, op.Metadata})
	}
	checkCSV(t, buf.Bytes(), []string{"request_bytes", "reply_bytes", "metadata"}, rows)
}

type failingWriter struct{}

var errDiskFull = errors.New("disk full")

func (failingWriter) Write([]byte) (int, error) { return 0, errDiskFull }

// TestCSVWritersReportWriteErrors pins that no writer drops the error of
// the stream under it.
func TestCSVWritersReportWriteErrors(t *testing.T) {
	w := failingWriter{}
	cfg := DefaultFileTraceConfig()
	cfg.Accesses = 10
	for name, err := range map[string]error{
		"activity": WriteActivityCSV(w, GenerateActivity(DefaultActivityConfig(2, 1))),
		"jobs":     WriteJobsCSV(w, GenerateJobs(DefaultJobTraceConfig(3600*1e9))),
		"files":    WriteFileAccessCSV(w, GenerateFileTrace(cfg)),
		"nfs":      WriteNFSCSV(w, GenerateNFS(DefaultNFSTraceConfig())[:10]),
	} {
		if !errors.Is(err, errDiskFull) {
			t.Errorf("%s: err = %v, want the writer's error", name, err)
		}
	}
}
