package experiments

import (
	"strings"
	"testing"

	"github.com/nowproject/now/internal/coopcache"
	"github.com/nowproject/now/internal/sim"
)

func TestTable2WithinTolerance(t *testing.T) {
	rep, rows, err := Table2()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		ratio := float64(r.Measured) / float64(r.Paper)
		if ratio < 0.75 || ratio > 1.3 {
			t.Errorf("%s: measured %v vs paper %v (ratio %.2f)", r.Config, r.Measured, r.Paper, ratio)
		}
	}
	// The headline: ATM remote memory is an order of magnitude faster
	// than disk service.
	if f := float64(rows[3].Measured) / float64(rows[2].Measured); f < 8 {
		t.Errorf("ATM disk/mem = %.1f, want ≳10", f)
	}
	if !strings.Contains(rep.String(), "Table 2") {
		t.Error("report missing title")
	}
}

func TestAMMicroOrderings(t *testing.T) {
	_, rows, err := AMMicro()
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]AMRow{}
	for _, r := range rows {
		byName[r.Name] = r
	}
	am := byName["Active Messages (HPAM)"]
	tcp := byName["TCP"]
	sock := byName["sockets over AM"]
	if am.OneWay >= sock.OneWay || sock.OneWay >= tcp.OneWay {
		t.Fatalf("one-way ordering violated: AM %v, sockets %v, TCP %v",
			am.OneWay, sock.OneWay, tcp.OneWay)
	}
	if !(am.HalfPower < byName["single-copy TCP"].HalfPower &&
		byName["single-copy TCP"].HalfPower < tcp.HalfPower) {
		t.Fatalf("half-power ordering violated")
	}
	if r := float64(tcp.OneWay) / float64(sock.OneWay); r < 6 {
		t.Fatalf("TCP/sockets-over-AM = %.1f, want ≈10", r)
	}
}

func TestNFSStudy(t *testing.T) {
	_, res, err := NFSStudy()
	if err != nil {
		t.Fatal(err)
	}
	if res.SmallFraction < 0.92 || res.SmallFraction > 0.99 {
		t.Fatalf("small fraction = %.3f", res.SmallFraction)
	}
	// Paper: "the overall improvement is just 20 percent."
	if res.Improvement < 0.10 || res.Improvement > 0.35 {
		t.Fatalf("improvement = %.1f%%, want ≈20%%", res.Improvement*100)
	}
}

func TestStaticReports(t *testing.T) {
	if rep, rows := Table1(); len(rows) != 3 || rep.Table == nil {
		t.Fatal("Table1 degenerate")
	}
	if rep, rows := Figure1(); len(rows) != 6 || rep.Table == nil {
		t.Fatal("Figure1 degenerate")
	}
	if rep, rows := Table4(); len(rows) != 6 || rep.Table == nil {
		t.Fatal("Table4 degenerate")
	}
}

func TestSFIOverheadReport(t *testing.T) {
	_, rows, err := SFIOverhead()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 10 { // 5 kernels × 2 modes
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		if r.Overhead < 0 {
			t.Fatalf("%s/%v negative overhead", r.Kernel, r.Mode)
		}
		// The representative numeric kernel lands in the paper's band.
		if r.Kernel == "stencil" && r.Mode.String() == "optimized" {
			if r.Overhead < 0.03 || r.Overhead > 0.07 {
				t.Errorf("stencil optimized overhead = %.1f%%, want 3-7%%", r.Overhead*100)
			}
		}
	}
}

func TestFigure2SmallSweep(t *testing.T) {
	_, rows, err := Figure2([]int64{8})
	if err != nil {
		t.Fatal(err)
	}
	r := rows[0]
	if r.NetVsDRAM < 1.0 || r.NetVsDRAM > 1.5 {
		t.Fatalf("netRAM/DRAM = %.2f", r.NetVsDRAM)
	}
	if r.DiskVsNet < 4 || r.DiskVsNet > 15 {
		t.Fatalf("disk/netRAM = %.2f", r.DiskVsNet)
	}
	if r.RemoteFaultsServed == 0 {
		t.Fatal("no remote faults served")
	}
}

func TestMemoryRestoreBound(t *testing.T) {
	_, rows, err := MemoryRestore()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.Method == "parallel FS over ATM" && r.Disks >= 16 {
			if r.Elapsed > 4*sim.Second {
				t.Errorf("%d disks: restore %v exceeds the 4s bound", r.Disks, r.Elapsed)
			}
		}
		if r.Method == "buddy RAM over ATM" && r.Elapsed > 4*sim.Second {
			t.Errorf("buddy restore %v exceeds the 4s bound", r.Elapsed)
		}
	}
	// Striping must actually scale.
	var one, eight sim.Duration
	for _, r := range rows {
		if r.Method == "parallel FS over ATM" {
			if r.Disks == 1 {
				one = r.Elapsed
			}
			if r.Disks == 8 {
				eight = r.Elapsed
			}
		}
	}
	if speedup := float64(one) / float64(eight); speedup < 4 {
		t.Errorf("8-disk speedup = %.1f", speedup)
	}
}

func TestTable3Reduced(t *testing.T) {
	rep, rows, err := Table3(Table3Config{
		Accesses: 40_000,
		Policies: []coopcache.Policy{coopcache.ClientServer, coopcache.NChance},
	})
	if err != nil {
		t.Fatal(err)
	}
	base, coop := rows[0], rows[1]
	if coop.MissRate >= base.MissRate {
		t.Fatalf("cooperation did not reduce misses: %.3f vs %.3f", coop.MissRate, base.MissRate)
	}
	if coop.ReadResponse >= base.ReadResponse {
		t.Fatalf("cooperation did not speed reads: %v vs %v", coop.ReadResponse, base.ReadResponse)
	}
	if rep.Table == nil {
		t.Fatal("missing table")
	}
}

func TestFigure4Reduced(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	_, rows, err := Figure4(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	byKey := map[string]float64{}
	for _, r := range rows {
		if r.Jobs == 2 {
			byKey[r.Pattern.String()] = r.Slowdown
		}
	}
	if byKey["Connect"] < byKey["RandA"] {
		t.Fatalf("Connect %.2f not worse than RandA %.2f", byKey["Connect"], byKey["RandA"])
	}
	if byKey["Connect"] < 1.5 {
		t.Fatalf("Connect slowdown %.2f too small", byKey["Connect"])
	}
}

func TestFigure3Point(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	_, rows, err := Figure3(Figure3Config{Days: 1, Sizes: []int{96}})
	if err != nil {
		t.Fatal(err)
	}
	if rows[0].Slowdown < 1.0 || rows[0].Slowdown > 2.0 {
		t.Fatalf("96-workstation slowdown = %.2f, want ≈1.1", rows[0].Slowdown)
	}
	if rows[0].JobsCompleted == 0 {
		t.Fatal("no jobs completed")
	}
}

func TestAvailabilityReport(t *testing.T) {
	_, res, err := Availability(53, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.FullyIdleDaytime < 0.60 {
		t.Fatalf("fully idle daytime = %.2f, want > 0.60", res.FullyIdleDaytime)
	}
	if res.MeanAvailableAt2 <= res.FullyIdleDaytime {
		t.Fatal("instantaneous availability should exceed whole-day availability")
	}
}

func TestSWRAIDScaling(t *testing.T) {
	_, rows, err := SWRAID()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.ReadMBps <= 0 || r.DegradedMBps <= 0 {
			t.Fatalf("degenerate row %+v", r)
		}
	}
	// 8 disks should read several times faster than 1.
	for _, r := range rows {
		if r.Disks == 8 && r.ReadMBps < 4*r.OneDiskMBps {
			t.Fatalf("8-disk read %.1f MB/s < 4× one disk %.1f", r.ReadMBps, r.OneDiskMBps)
		}
	}
}

func TestSeqScanSpeedup(t *testing.T) {
	rep, rows, err := SeqScan([]int{32})
	if err != nil {
		t.Fatal(err)
	}
	if rep.ID != "ST2" || len(rows) != 1 {
		t.Fatalf("report %q rows %d", rep.ID, len(rows))
	}
	r := rows[0]
	if r.Speedup < 2 {
		t.Fatalf("pipelined scan not ≥2x at %d nodes: %+v", r.Nodes, r)
	}
	if r.RangeReads == 0 || r.BatchedTokens == 0 || r.PrefetchHits == 0 {
		t.Fatalf("pipelined machinery unused: %+v", r)
	}
	if len(rep.Obs) != 2 {
		t.Fatalf("want serial+pipelined registries, got %d", len(rep.Obs))
	}
}
