package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestAllKinds(t *testing.T) {
	for _, kind := range []string{"activity", "jobs", "files", "nfs"} {
		if err := run([]string{"-kind", kind, "-days", "1", "-hours", "2", "-accesses", "2000"}); err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
	}
}

func TestCSVExport(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.csv")
	if err := run([]string{"-kind", "jobs", "-hours", "4", "-csv", path}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) < 2 || !strings.HasPrefix(lines[0], "id,arrive_ns") {
		t.Fatalf("bad CSV: %d lines, header %q", len(lines), lines[0])
	}
}

// TestCSVWriteErrorFails pins that a CSV export the disk cannot hold
// fails the command instead of leaving a short file behind a zero exit.
func TestCSVWriteErrorFails(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full on this system")
	}
	for _, kind := range []string{"activity", "jobs", "files", "nfs"} {
		if err := run([]string{"-kind", kind, "-days", "1", "-hours", "2", "-accesses", "2000", "-csv", "/dev/full"}); err == nil {
			t.Errorf("%s: write to /dev/full succeeded", kind)
		}
	}
}

func TestUnknownKind(t *testing.T) {
	if err := run([]string{"-kind", "bogus"}); err == nil {
		t.Fatal("unknown kind accepted")
	}
}
