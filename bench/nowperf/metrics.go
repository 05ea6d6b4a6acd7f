package main

import (
	"math"
	"sort"
	"strings"
)

// metricDef names one reported metric and its unit. Direction and
// regression bounds live in BENCHMARK.json, the single place a
// comparison reads them from.
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics a user of the simulator sees, reported with
// -trace 0. Each is the median over the timed reps of one run, except
// peak_rss_mb, which is the process high-water mark.
var endToEnd = []metricDef{
	{"ops_per_s", "1/s"},         // workload ops completed per host second of the op phase
	{"host_cpu_us_per_op", "us"}, // process user+sys CPU per op (catches work on the second core)
	{"setup_s", "s"},             // host time to build the stack before the first op
	{"alloc_bytes_per_op", "B"},  // Go heap bytes allocated per op
	{"peak_rss_mb", "MB"},        // resident-set high-water mark of the process
}

// perLayer are the traced run's metrics (-trace 1). Counts come from the
// subsystems' public Stats() and registry snapshots, host shares from a
// CPU profile of the traced rep. A per-op count of a layer the workload
// never touches is 0; a quantile with no samples, or a count the facade
// does not expose on that workload, is -1.
var perLayer = []metricDef{
	{"sim.events_per_op", "count/op"},
	{"sim.spawns_per_op", "count/op"},
	{"sim.switches_per_op", "count/op"},
	{"sim.events_per_host_s", "1/s"},
	{"sim.host_share", "fraction"},
	{"netsim.pkts_per_op", "count/op"},
	{"netsim.bytes_per_op", "B/op"},
	{"netsim.drops", "count"},
	{"netsim.host_share", "fraction"},
	{"am.requests_per_op", "count/op"},
	{"am.handlers_per_op", "count/op"},
	{"am.retries_per_op", "count/op"},
	{"am.overflows", "count"},
	{"am.host_share", "fraction"},
	{"collective.barrier_virt_us.p50", "us"},
	{"collective.barrier_virt_us.p99", "us"},
	{"collective.host_share", "fraction"},
	{"xfs.read_virt_us.p50", "us"},
	{"xfs.read_virt_us.p99", "us"},
	{"xfs.miss_ratio", "fraction"},
	{"xfs.storage_reads_per_op", "count/op"},
	{"xfs.cache_transfers_per_op", "count/op"},
	{"xfs.host_share", "fraction"},
	{"swraid.degraded_reads", "count"},
	{"swraid.host_share", "fraction"},
	{"node.host_share", "fraction"},
	{"glunix.jobs_completed", "count"},
	{"glunix.host_share", "fraction"},
	{"faults.applied", "count"},
	{"faults.host_share", "fraction"},
	{"scenario.opmix_virt_us.p50", "us"},
	{"scenario.opmix_virt_us.p99", "us"},
	{"scenario.host_share", "fraction"},
	{"obs.host_share", "fraction"},
	{"fed.op_virt_us.p50", "us"},
	{"fed.op_virt_us.p99", "us"},
	{"fed.wan_calls_per_op", "count/op"},
	{"fed.wan_timeouts_per_kop", "count/kop"},
	{"fed.recalls_per_op", "count/op"},
	{"federation.host_share", "fraction"},
	{"runtime.gc_share", "fraction"},
	{"runtime.stack_share", "fraction"},
	{"runtime.sched_share", "fraction"},
	{"runtime.gc_cycles_per_kop", "count/kop"},
	{"bench.host_share", "fraction"},
	{"other.host_share", "fraction"},
	{"trace.cpu_samples", "count"},
	{"trace.overhead", "ratio"},
}

// notMeasured marks a per-layer value the workload cannot produce (see
// perLayer).
const notMeasured = -1

// layerDefault is the value a per-layer metric takes when the workload
// does not set it: quantiles have no samples, counts are zero.
func layerDefault(name string) float64 {
	if strings.HasSuffix(name, ".p50") || strings.HasSuffix(name, ".p99") {
		return notMeasured
	}
	return 0
}

// summary describes one metric's samples: the median goes in the
// result line, the rest in results.json.
type summary struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	N      int     `json:"n"`
}

// summarize computes the median and quartiles the way Python's
// statistics.quantiles(values, n=4) does (its default "exclusive"
// method), so this program and any external check agree on a spread.
func summarize(xs []float64) summary {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return summary{}
	}
	sum := summary{Min: s[0], Max: s[n-1], N: n, Median: median(s)}
	if n == 1 {
		sum.Q1, sum.Q3 = s[0], s[0]
		return sum
	}
	q := func(i int) float64 {
		m := n + 1
		j := max(1, min(i*m/4, n-1))
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	sum.Q1, sum.Q3 = q(1), q(3)
	return sum
}

// median of an already sorted slice.
func median(s []float64) float64 {
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quantileUs returns the q-quantile (0..1, nearest rank) of virtual
// latencies in ns, in µs; notMeasured when there are none.
func quantileUs(lat []int64, q float64) float64 {
	if len(lat) == 0 {
		return notMeasured
	}
	s := append([]int64(nil), lat...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	rank := int(math.Ceil(q * float64(len(s))))
	rank = max(1, min(rank, len(s)))
	return float64(s[rank-1]) / 1e3
}

// perOp divides a count by the op count, guarding an empty run.
func perOp(n, ops int64) float64 {
	if ops == 0 {
		return 0
	}
	return float64(n) / float64(ops)
}
