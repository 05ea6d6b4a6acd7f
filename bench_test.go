package now_test

// The benchmark harness: one testing.B target per table and figure in
// the paper (plus the quantitative prose claims, the "E" experiments of
// DESIGN.md §3). Each bench regenerates its artifact end to end —
// workload generation, simulation, measurement — and reports the
// headline numbers as custom metrics, so
//
//	go test -bench=. -benchmem
//
// reproduces the paper's evaluation. cmd/nowbench prints the same rows
// as formatted paper-vs-measured tables.

import (
	"fmt"
	"testing"

	"github.com/nowproject/now/internal/coopcache"
	"github.com/nowproject/now/internal/experiments"
)

// fullConfig returns the configuration study id runs at full scale, as
// its row in the study table gives it.
func fullConfig[C any](b *testing.B, id string) C {
	for _, s := range experiments.Studies {
		if s.ID == id {
			return s.Full.(C)
		}
	}
	b.Fatalf("no study %s", id)
	var zero C
	return zero
}

func BenchmarkTable1MPPLag(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, rows := experiments.Table1()
		if len(rows) != 3 {
			b.Fatal("bad table")
		}
		if i == 0 {
			b.ReportMetric(rows[2].PerfFactor, "CM5-lag-cost-x")
		}
	}
}

func BenchmarkFigure1SystemPrice(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, rows := experiments.Figure1()
		if i == 0 {
			best := rows[2].Total // 4-way SS-10
			b.ReportMetric(rows[5].Total/best, "MPP-vs-bestWS-x")
		}
	}
}

func BenchmarkTable2MissService(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, rows, err := experiments.Table2()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(rows[2].Measured.Microseconds(), "ATM-remote-mem-us")
			b.ReportMetric(rows[0].Measured.Microseconds(), "Eth-remote-mem-us")
		}
	}
}

func BenchmarkFigure2NetworkRAM(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, rows, err := experiments.Figure2([]int64{2, 4, 6, 8, 12, 16})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			last := rows[len(rows)-1]
			b.ReportMetric(last.NetVsDRAM, "netram-vs-dram-x")
			b.ReportMetric(last.DiskVsNet, "disk-vs-netram-x")
		}
	}
}

func BenchmarkTable3CoopCache(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, rows, err := experiments.Table3(fullConfig[experiments.Table3Config](b, "T3"))
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, r := range rows {
				switch r.Policy {
				case coopcache.ClientServer:
					b.ReportMetric(r.MissRate*100, "baseline-miss-pct")
					b.ReportMetric(r.ReadResponse.Milliseconds(), "baseline-read-ms")
				case coopcache.NChance:
					b.ReportMetric(r.MissRate*100, "nchance-miss-pct")
					b.ReportMetric(r.ReadResponse.Milliseconds(), "nchance-read-ms")
				}
			}
		}
	}
}

func BenchmarkTable4Gator(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, rows := experiments.Table4()
		if i == 0 {
			b.ReportMetric(rows[5].Total.Seconds(), "best-NOW-total-s")
			b.ReportMetric(rows[0].Total.Seconds(), "C90-total-s")
		}
	}
}

func BenchmarkFigure3MixedWorkload(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, rows, err := experiments.Figure3(fullConfig[experiments.Figure3Config](b, "F3"))
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, r := range rows {
				if r.Workstations == 64 {
					b.ReportMetric(r.Slowdown, "slowdown-at-64ws-x")
				}
				if r.Workstations == 96 {
					b.ReportMetric(r.Slowdown, "slowdown-at-96ws-x")
				}
			}
		}
	}
}

func BenchmarkFigure4Coscheduling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, rows, err := experiments.Figure4(3, 1)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, r := range rows {
				if r.Jobs == 3 {
					b.ReportMetric(r.Slowdown, r.Pattern.String()+"-3jobs-x")
				}
			}
		}
	}
}

func BenchmarkNFSMessageStudy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, res, err := experiments.NFSStudy()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(res.Improvement*100, "improvement-pct")
			b.ReportMetric(res.SmallFraction*100, "small-msgs-pct")
		}
	}
}

func BenchmarkAMMicro(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, rows, err := experiments.AMMicro()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, r := range rows {
				if r.Name == "Active Messages (HPAM)" {
					b.ReportMetric(r.OneWay.Microseconds(), "AM-oneway-us")
					b.ReportMetric(float64(r.HalfPower), "AM-N12-bytes")
				}
			}
		}
	}
}

func BenchmarkMemoryRestore(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, rows, err := experiments.MemoryRestore()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, r := range rows {
				if r.Disks == 16 {
					b.ReportMetric(r.Elapsed.Seconds(), "restore-16disks-s")
				}
			}
		}
	}
}

func BenchmarkSFIOverhead(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, rows, err := experiments.SFIOverhead()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, r := range rows {
				if r.Kernel == "matmul" && r.Mode.String() == "optimized" {
					b.ReportMetric(r.Overhead*100, "matmul-optimized-pct")
				}
			}
		}
	}
}

func BenchmarkAvailability(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, res, err := experiments.Availability(53, 10, 1)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(res.FullyIdleDaytime*100, "fully-idle-daytime-pct")
		}
	}
}

func BenchmarkAblationRecruitmentPolicy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, rows, err := experiments.RecruitmentPolicyAblation(48, 1, 1)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, r := range rows {
				b.ReportMetric(r.Slowdown, r.Policy.String()+"-slowdown-x")
			}
		}
	}
}

func BenchmarkAblationNChance(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, rows, err := experiments.NChanceAblation(120_000)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, r := range rows {
				b.ReportMetric(r.MissRate*100, fmt.Sprintf("N%d-miss-pct", r.N))
			}
		}
	}
}

func BenchmarkAblationColumnBuffering(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, rows, err := experiments.ColumnBufferAblation(1)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(rows[0].Slowdown, "starved-x")
			b.ReportMetric(rows[len(rows)-1].Slowdown, "buffered-x")
		}
	}
}

func BenchmarkAblationOverheadVsBandwidth(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, rows, err := experiments.OverheadVsBandwidthAblation()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, r := range rows {
				if r.Label == "10× less overhead only" {
					b.ReportMetric(r.NFSImprove*100, "overhead-cut-pct")
				}
				if r.Label == "15× bandwidth only" {
					b.ReportMetric(r.NFSImprove*100, "bandwidth-raise-pct")
				}
			}
		}
	}
}

func BenchmarkSWRAID(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, rows, err := experiments.SWRAID()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, r := range rows {
				if r.Disks == 16 {
					b.ReportMetric(r.ReadMBps, "raid0-16disks-MBps")
					b.ReportMetric(r.DegradedMBps, "raid5-degraded-MBps")
				}
			}
		}
	}
}
