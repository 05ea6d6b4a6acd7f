package main

import (
	"reflect"
	"strings"
	"testing"
)

// keys strips the position prefix from each problem line.
func keys(problems []string) []string {
	out := make([]string, len(problems))
	for i, p := range problems {
		out[i] = p[strings.Index(p, ": ")+2:]
	}
	return out
}

// TestPlantedExportFails runs the scan over a fixture tree whose lib
// package holds one uncalled function and one uncalled method, beside
// names reached from the root module, from a nested module, through an
// interface and through fmt. Only the planted names may be reported.
func TestPlantedExportFails(t *testing.T) {
	problems, err := check("testdata/plant", "testdata/allow_stale.txt")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"allowlisted lib.Gone is called or gone; drop its entry",
		"allowlisted lib.Used is called or gone; drop its entry",
		"lib.Planted has no non-test caller",
		"lib.Sq.Planted has no non-test caller",
	}
	if got := keys(problems); !reflect.DeepEqual(got, want) {
		t.Fatalf("problems:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

func TestAllowlistedExportPasses(t *testing.T) {
	problems, err := check("testdata/plant", "testdata/allow_ok.txt")
	if err != nil {
		t.Fatal(err)
	}
	if len(problems) != 0 {
		t.Fatalf("problems: %q", problems)
	}
}

func TestAllowlistEntryNeedsReason(t *testing.T) {
	if _, err := check("testdata/plant", "testdata/allow_noreason.txt"); err == nil {
		t.Fatal("an entry without a reason was accepted")
	}
}
