package trace

import (
	"encoding/csv"
	"io"
	"strconv"
)

// CSV writers for the synthetic traces, so runs can be exported for
// external analysis (cmd/nowtrace). One writer per trace kind; each
// writes a header row, then one row per record, and returns the first
// write or flush error.

// WriteActivityCSV writes an activity trace as t_ns,workstation,active.
func WriteActivityCSV(w io.Writer, tr *ActivityTrace) error {
	return writeCSV(w, []string{"t_ns", "workstation", "active"}, tr.Events, func(ev ActivityEvent) []string {
		return []string{strconv.FormatInt(int64(ev.T), 10), strconv.Itoa(ev.WS), strconv.FormatBool(ev.Active)}
	})
}

// WriteJobsCSV writes a parallel job log.
func WriteJobsCSV(w io.Writer, jobs []ParallelJob) error {
	return writeCSV(w, []string{"id", "arrive_ns", "nodes", "work_ns", "grain_ns"}, jobs, func(j ParallelJob) []string {
		return []string{
			strconv.Itoa(j.ID), strconv.FormatInt(int64(j.Arrive), 10), strconv.Itoa(j.Nodes),
			strconv.FormatInt(int64(j.Work), 10), strconv.FormatInt(int64(j.CommGrain), 10),
		}
	})
}

// WriteFileAccessCSV writes a block-access trace.
func WriteFileAccessCSV(w io.Writer, accs []FileAccess) error {
	return writeCSV(w, []string{"t_ns", "client", "file", "block", "write"}, accs, func(a FileAccess) []string {
		return []string{
			strconv.FormatInt(int64(a.T), 10), strconv.Itoa(a.Client),
			strconv.FormatUint(uint64(a.File), 10), strconv.FormatUint(uint64(a.Block), 10),
			strconv.FormatBool(a.Write),
		}
	})
}

// WriteNFSCSV writes an NFS operation mix.
func WriteNFSCSV(w io.Writer, ops []NFSOp) error {
	return writeCSV(w, []string{"request_bytes", "reply_bytes", "metadata"}, ops, func(op NFSOp) []string {
		return []string{strconv.Itoa(op.RequestBytes), strconv.Itoa(op.ReplyBytes), strconv.FormatBool(op.Metadata)}
	})
}

func writeCSV[T any](w io.Writer, header []string, recs []T, row func(T) []string) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(header); err != nil {
		return err
	}
	for _, r := range recs {
		if err := cw.Write(row(r)); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
