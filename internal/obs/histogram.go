package obs

// Histogram is a fixed-layout histogram of int64 observations (virtual
// durations in ns, sizes in bytes, depths). The bucket layout is fixed
// at registration and shared across runs, which is what makes exported
// output byte-stable: two runs of the same scenario fill the same
// buckets, and a changed code path moves counts between buckets rather
// than reshaping the output.
//
// Observe is a binary search over a small bounds slice plus three
// increments — no allocation, no map.
type Histogram struct {
	name   string
	bounds []int64 // ascending upper bounds; counts has one extra +Inf slot
	counts []int64
	n      int64
	sum    int64
	max    int64 // largest observation; meaningful only when n > 0
}

// Histogram creates and registers a histogram with the given ascending
// upper bounds (use one of the standard layouts below unless the metric
// truly needs its own). Nil on a nil registry.
func (r *Registry) Histogram(name string, bounds []int64) *Histogram {
	if r == nil {
		return nil
	}
	r.register(name)
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic("obs: histogram bounds must ascend: " + name)
		}
	}
	h := &Histogram{
		name:   name,
		bounds: append([]int64(nil), bounds...),
		counts: make([]int64, len(bounds)+1),
	}
	r.hists = append(r.hists, h)
	return h
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	// Binary search for the first bound >= v; the tail slot catches
	// overflow.
	lo, hi := 0, len(h.bounds)
	for lo < hi {
		mid := (lo + hi) / 2
		if h.bounds[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if h.n == 0 || v > h.max {
		h.max = v
	}
	h.counts[lo]++
	h.n++
	h.sum += v
}

// Max reports the largest observation (0 on a nil or empty handle).
// Quantile estimates clamp to it: a bucket upper bound is an estimate,
// the maximum is a fact.
func (h *Histogram) Max() int64 {
	if h == nil || h.n == 0 {
		return 0
	}
	return h.max
}

// Standard bucket layouts. Fixed and shared: determinism rule #2 in
// docs/OBSERVABILITY.md. All duration layouts are in virtual
// nanoseconds.
var (
	// DurationBuckets spans the simulation's dynamic range — from the
	// ~1 µs Active Message regime through multi-minute job responses —
	// in a 1-2-5 decade series. 26 buckets plus overflow.
	DurationBuckets = []int64{
		1_000, 2_000, 5_000, // 1-5 µs: the AM overhead regime
		10_000, 20_000, 50_000, // 10-50 µs: switch latency, small RPCs
		100_000, 200_000, 500_000, // 0.1-0.5 ms: kernel-stack messages
		1_000_000, 2_000_000, 5_000_000, // 1-5 ms: disk-class service
		10_000_000, 20_000_000, 50_000_000, // 10-50 ms: degraded I/O
		100_000_000, 200_000_000, 500_000_000, // 0.1-0.5 s: bulk transfer
		1e9, 2e9, 5e9, // 1-5 s: image save/restore
		10e9, 30e9, 60e9, // 10-60 s: short jobs
		300e9, 3600e9, // 5 min, 1 h: long jobs
	}

	// DepthBuckets is a power-of-two series for queue depths and
	// outstanding-operation counts.
	DepthBuckets = []int64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 4096, 16384}

	// SizeBuckets is a power-of-four byte series from 64 B to 64 MB —
	// message and transfer sizes.
	SizeBuckets = []int64{64, 256, 1024, 4096, 16384, 65536, 262144, 1048576, 4194304, 16777216, 67108864}
)
