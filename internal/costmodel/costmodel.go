// Package costmodel reproduces the paper's economic arguments: Bell's
// volume rule, the DRAM price gap between PCs and supercomputers, the
// engineering lag of MPPs (Table 1), and the price of assembling 128
// SuperSparc processors as workstations, SMP servers, or an MPP
// (Figure 1).
package costmodel

import (
	"fmt"
	"math"
)

// BellCostRatio applies Gordon Bell's rule of thumb — doubling
// manufacturing volume reduces unit cost to 90% — returning the unit
// cost of the higher-volume product relative to the lower-volume one.
// The paper's example: 30,000× the volume predicts roughly a fivefold
// cost advantage.
func BellCostRatio(volumeRatio float64) float64 {
	if volumeRatio <= 0 {
		return 1
	}
	return math.Pow(0.9, math.Log2(volumeRatio))
}

// DRAMPricePerMB (January 1994, $): the paper's observation that the
// same bits cost 15× more in a Cray M90 than in a personal computer.
var DRAMPricePerMB = map[string]float64{
	"personal computer": 40,
	"Cray M90":          600,
}

// PerformanceGrowth is the annual microprocessor performance
// improvement the paper assumes when costing engineering lag.
const PerformanceGrowth = 0.50

// MPPLag is one Table 1 row: an MPP and the year a workstation shipped
// with the same microprocessor.
type MPPLag struct {
	MPP        string
	Processor  string
	MPPYear    float64 // midpoint of the shipping window
	EquivYear  float64 // when workstations had the equivalent processor
	LagYears   float64
	PerfFactor float64 // performance given up to the lag at 50%/yr
}

// Table1 returns the paper's MPP-lag comparison, with the derived cost
// of that lag at 50% performance growth per year.
func Table1() []MPPLag {
	rows := []MPPLag{
		{MPP: "T3D", Processor: "150-MHz Alpha", MPPYear: 1993.5, EquivYear: 1992.5},
		{MPP: "Paragon", Processor: "50-MHz i860", MPPYear: 1992.5, EquivYear: 1991},
		{MPP: "CM-5", Processor: "32-MHz SS-2", MPPYear: 1991.5, EquivYear: 1989.5},
	}
	for i := range rows {
		rows[i].LagYears = rows[i].MPPYear - rows[i].EquivYear
		rows[i].PerfFactor = math.Pow(1+PerformanceGrowth, rows[i].LagYears)
	}
	return rows
}

// SystemConfig prices one way of packaging 128 40-MHz SuperSparc
// processors with 128×32 MB of memory, 128 GB of disk and 128 screens —
// Figure 1's comparison. Prices are representative 1994 university list
// prices; the *shape* (servers and MPPs ≈ 2× the most cost-effective
// workstation) is the reproduction target, per the paper.
type SystemConfig struct {
	Name        string
	CPUsPerBox  int
	BoxBase     float64 // enclosure + first CPU + workstation screen if integrated
	ExtraCPU    float64 // each additional processor in the box
	HasScreen   bool    // workstations include their screen
	Engineering float64 // low-volume engineering markup multiplier
}

// Figure1Configs returns the six systems of Figure 1.
func Figure1Configs() []SystemConfig {
	return []SystemConfig{
		{Name: "SparcStation-10 (1-way)", CPUsPerBox: 1, BoxBase: 16_000, ExtraCPU: 7_000, HasScreen: true, Engineering: 1.0},
		{Name: "SparcStation-10 (2-way)", CPUsPerBox: 2, BoxBase: 16_000, ExtraCPU: 7_000, HasScreen: true, Engineering: 1.0},
		{Name: "SparcStation-10 (4-way)", CPUsPerBox: 4, BoxBase: 16_000, ExtraCPU: 7_000, HasScreen: true, Engineering: 1.0},
		{Name: "SparcCenter-1000 (8-way)", CPUsPerBox: 8, BoxBase: 55_000, ExtraCPU: 9_000, Engineering: 1.35},
		{Name: "SparcCenter-2000 (20-way)", CPUsPerBox: 20, BoxBase: 110_000, ExtraCPU: 10_000, Engineering: 1.45},
		{Name: "CM-5/CS-2 (128-node MPP)", CPUsPerBox: 128, BoxBase: 250_000, ExtraCPU: 14_000, Engineering: 1.5},
	}
}

// SystemPrice is one Figure 1 bar.
type SystemPrice struct {
	Name  string
	Boxes int
	Total float64 // dollars for the full 128-CPU configuration
}

// Component prices shared by every configuration.
const (
	totalCPUs   = 128
	memPerCPUMB = 32
	dramPerMB   = 40.0   // $/MB at workstation volume
	diskPerGB   = 700.0  // $/GB, commodity SCSI
	diskTotalGB = 128.0  //
	xTerminal   = 1500.0 // screen for configurations without one per user
	netPerNode  = 600.0  // switched LAN adapter + port per box
)

// PriceSystem computes one configuration's total price. Boxes that do
// not divide 128 evenly (the 20-way SparcCenter-2000) need a final
// partially populated box.
func PriceSystem(cfg SystemConfig) SystemPrice {
	boxes := (totalCPUs + cfg.CPUsPerBox - 1) / cfg.CPUsPerBox
	fullBoxes := totalCPUs / cfg.CPUsPerBox
	perBox := cfg.BoxBase + float64(cfg.CPUsPerBox-1)*cfg.ExtraCPU
	total := float64(fullBoxes) * perBox
	if rem := totalCPUs - fullBoxes*cfg.CPUsPerBox; rem > 0 {
		total += cfg.BoxBase + float64(rem-1)*cfg.ExtraCPU
	}
	// Memory and disk are the same raw quantities everywhere, but
	// low-volume packaging taxes them too (the paper's DRAM example).
	total += totalCPUs * memPerCPUMB * dramPerMB * cfg.Engineering
	total += diskTotalGB * diskPerGB * cfg.Engineering
	if !cfg.HasScreen {
		total += totalCPUs * xTerminal
	}
	// Interconnect: a LAN port per box for clustered systems.
	if cfg.CPUsPerBox < totalCPUs {
		total += float64(boxes) * netPerNode
	}
	total *= cfg.Engineering
	return SystemPrice{Name: cfg.Name, Boxes: boxes, Total: total}
}

// Figure1 prices all configurations.
func Figure1() []SystemPrice {
	cfgs := Figure1Configs()
	out := make([]SystemPrice, len(cfgs))
	for i, c := range cfgs {
		out[i] = PriceSystem(c)
	}
	return out
}

// CheapestWorkstation returns the lowest-priced workstation
// configuration in Figure 1.
func CheapestWorkstation() SystemPrice {
	best := SystemPrice{Total: math.Inf(1)}
	for i, p := range Figure1() {
		if Figure1Configs()[i].HasScreen && p.Total < best.Total {
			best = p
		}
	}
	return best
}

// String renders a price line.
func (p SystemPrice) String() string {
	return fmt.Sprintf("%-28s %3d boxes  $%.2fM", p.Name, p.Boxes, p.Total/1e6)
}
