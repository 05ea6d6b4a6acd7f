package experiments

import (
	"strings"
	"testing"
)

// TestRemediationStudyImproves is the AV2 acceptance assertion: under
// the same unrepaired fault plan, arming the self-healing loop must
// yield measurably higher availability — and it must get there by
// actually remediating (rebuilds happened), not by luck. The stored
// AV2 golden is checked by TestStudyGoldens.
func TestRemediationStudyImproves(t *testing.T) {
	if testing.Short() {
		t.Skip("AV2 study runs minutes of virtual workload")
	}
	// Parallel, so it overlaps the AV rows of TestStudyGoldens.
	t.Parallel()
	rep, rows, err := RemediationStudy(studyConfig[AvailabilityConfig](t, "AV2", true))
	if err != nil {
		t.Fatalf("RemediationStudy: %v", err)
	}
	if rep.ID != "AV2" || len(rows) != 2 {
		t.Fatalf("report %q with %d rows, want AV2 with 2", rep.ID, len(rows))
	}
	off, on := rows[0], rows[1]
	if !strings.Contains(off.Scenario, "off") || !strings.Contains(on.Scenario, "on") {
		t.Fatalf("row order %q, %q — want off then on", off.Scenario, on.Scenario)
	}
	if on.AvailabilityPct <= off.AvailabilityPct {
		t.Fatalf("remediation did not help: off %.1f%% vs on %.1f%%",
			off.AvailabilityPct, on.AvailabilityPct)
	}
	if on.AvailabilityPct-off.AvailabilityPct < 5 {
		t.Fatalf("improvement not measurable: off %.1f%% vs on %.1f%%",
			off.AvailabilityPct, on.AvailabilityPct)
	}
	if on.Rebuilds == 0 {
		t.Fatal("remediation-on arm recorded no rebuilds — improvement is not the loop's doing")
	}
	if off.Rebuilds != 0 || off.RemediateActions != 0 {
		t.Fatalf("remediation-off arm acted: %d rebuilds, %d actions",
			off.Rebuilds, off.RemediateActions)
	}
	// Same plan must land in both arms.
	if off.FaultsApplied != on.FaultsApplied {
		t.Fatalf("fault counts diverge: off %d, on %d", off.FaultsApplied, on.FaultsApplied)
	}
}
