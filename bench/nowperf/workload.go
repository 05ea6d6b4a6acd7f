package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"sort"

	now "github.com/nowproject/now"
)

// workload is one benchmark input set. rep builds a fresh stack, calls
// h.ready() once the stack is built (ending the timed set-up phase),
// runs the workload's fixed ops closed-loop, and returns what happened
// in virtual time. Why each exists is in BENCHMARK.json and its file.
type workload struct {
	name string
	rep  func(rc repConfig, h *harness) (*outcome, error)
}

// workloads lists the benchmark in run order.
var workloads = []*workload{
	{"xfs-readmiss", xfsReadMiss},
	{"cluster-drill", clusterDrill},
	{"barrier-tree-1024", barrierTree},
	{"barrier-innet-1024", barrierInNet},
	{"wan-lease", wanLease},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.name)
	}
	return out
}

// repConfig is what a workload reads to build one rep.
type repConfig struct {
	seed int64
	// scale multiplies op counts and scenario length; 1 is the
	// benchmark's size, the smoke test runs a fraction of it.
	scale float64
}

// scaled applies the rep's scale to a count, keeping at least one.
func (rc repConfig) scaled(n int) int {
	return max(1, int(math.Round(float64(n)*rc.scale)))
}

// harness links a rep to its measurement. ready ends the set-up phase
// and opens the run span op spans hang under; tr is nil except in the
// traced rep.
type harness struct {
	ready      func()
	tr         *tracer
	setup, run spanID
}

// outcome is a rep's result in virtual time. Everything in it is a pure
// function of the seed, so every rep of one run — and every run of one
// seed — must produce the same digest.
type outcome struct {
	ops, failed int64
	events      int64              // engine events dispatched in the op phase, all partitions
	virtEnd     int64              // final virtual time, ns
	lat         []int64            // per-op virtual latency, ns, in a deterministic order
	text        []string           // further virtual-time results (scenario report, metrics export)
	layers      map[string]float64 // per-layer counts (perLayer names)
}

// digest hashes the outcome; reps and runs of one seed must agree.
func (o *outcome) digest() string {
	h := fnv.New64a()
	fmt.Fprintf(h, "ops=%d failed=%d events=%d end=%d\n", o.ops, o.failed, o.events, o.virtEnd)
	var b [8]byte
	for _, l := range o.lat {
		binary.LittleEndian.PutUint64(b[:], uint64(l))
		h.Write(b[:])
	}
	for _, t := range o.text {
		io.WriteString(h, t)
	}
	names := make([]string, 0, len(o.layers))
	for n := range o.layers {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(h, "%s=%v\n", n, o.layers[n])
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// simTally is the engine's work counted by its registry.
type simTally struct{ events, spawns, switches int64 }

func simTallyOf(snap []now.Metric) simTally {
	return simTally{valueOf(snap, "sim.events.dispatched"), valueOf(snap, "sim.proc.spawns"), valueOf(snap, "sim.proc.switches")}
}

func (t simTally) minus(u simTally) simTally {
	return simTally{t.events - u.events, t.spawns - u.spawns, t.switches - u.switches}
}

// metricOf finds a metric in a snapshot (snapshots are sorted by name).
func metricOf(snap []now.Metric, name string) (now.Metric, bool) {
	i := sort.Search(len(snap), func(i int) bool { return snap[i].Name >= name })
	if i < len(snap) && snap[i].Name == name {
		return snap[i], true
	}
	return now.Metric{}, false
}

// valueOf is a counter's or gauge's value in a snapshot, 0 if absent.
func valueOf(snap []now.Metric, name string) int64 {
	m, _ := metricOf(snap, name)
	return m.Value
}

// setSim fills the engine's per-op counts.
func setSim(layers map[string]float64, t simTally, ops int64) {
	layers["sim.events_per_op"] = perOp(t.events, ops)
	layers["sim.spawns_per_op"] = perOp(t.spawns, ops)
	layers["sim.switches_per_op"] = perOp(t.switches, ops)
}

// netTally is a fabric's traffic in the op phase.
type netTally struct{ pkts, bytes, drops int64 }

// checkFabric enforces a finished fabric's conservation law, offered −
// delivered = drops, and returns its traffic. (The facade does not name
// the fabric's Stats type, so callers pass its fields.)
func checkFabric(label string, offered, delivered, drops, bytes int64) (netTally, error) {
	if offered-delivered != drops {
		return netTally{}, fmt.Errorf("%s fabric: offered %d - delivered %d != drops %d",
			label, offered, delivered, drops)
	}
	return netTally{offered, bytes, drops}, nil
}

func (t netTally) plus(u netTally) netTally {
	return netTally{t.pkts + u.pkts, t.bytes + u.bytes, t.drops + u.drops}
}

func (t netTally) minus(u netTally) netTally {
	return netTally{t.pkts - u.pkts, t.bytes - u.bytes, t.drops - u.drops}
}

func setNet(layers map[string]float64, t netTally, ops int64) {
	layers["netsim.pkts_per_op"] = perOp(t.pkts, ops)
	layers["netsim.bytes_per_op"] = perOp(t.bytes, ops)
	layers["netsim.drops"] = float64(t.drops)
}

// amNotExposed marks the AM counts of a workload whose endpoints live
// inside a subsystem the facade does not open up.
func amNotExposed(layers map[string]float64) {
	for _, n := range []string{"am.requests_per_op", "am.handlers_per_op", "am.retries_per_op", "am.overflows"} {
		layers[n] = notMeasured
	}
}

// splitMix is a tiny seeded generator (SplitMix64) for workload inputs:
// cheap enough to give every rank its own stream.
type splitMix struct{ s uint64 }

func newSplitMix(seed int64, stream uint64) *splitMix {
	return &splitMix{uint64(seed)*0x9E3779B97F4A7C15 ^ (stream+1)*0xBF58476D1CE4E5B9}
}

func (r *splitMix) next() uint64 {
	r.s += 0x9E3779B97F4A7C15
	z := r.s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// intn returns a value in [0, n).
func (r *splitMix) intn(n int) int { return int(r.next() % uint64(n)) }

// float returns a value in [0, 1).
func (r *splitMix) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// expo returns an exponentially distributed value with the given mean.
func (r *splitMix) expo(mean now.Duration) now.Duration {
	return now.Duration(-math.Log(1-r.float()) * float64(mean))
}

func (r *splitMix) fill(b []byte) {
	for i := 0; i < len(b); i += 8 {
		binary.LittleEndian.PutUint64(b[i:], r.next())
	}
}

// perm returns a seeded shuffle of 0..n-1.
func (r *splitMix) perm(n int) []uint32 {
	p := make([]uint32, n)
	for i := range p {
		p[i] = uint32(i)
	}
	for i := n - 1; i > 0; i-- {
		j := r.intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}
