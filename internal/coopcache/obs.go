package coopcache

import "github.com/nowproject/now/internal/obs"

// Instrument attaches metrics to the system. Call once per registry,
// after New. A nil registry is a no-op. Each Stats counter is exported
// as a gauge that reads its field live (so ResetStats at a warm-up
// boundary resets the gauges too, matching the reported tables); each
// read's service time is additionally recorded into a latency
// histogram.
//
// System metrics (names per docs/OBSERVABILITY.md):
//
//	coop.reads                application reads (sampled)
//	coop.writes               application writes (sampled)
//	coop.hits.local           reads hit in the local cache (sampled)
//	coop.hits.remote          reads served from a peer's cache (sampled)
//	coop.hits.server          reads served from server memory (sampled)
//	coop.reads.disk           reads that went to disk (sampled)
//	coop.recirculations       N-chance singlet recirculations (sampled)
//	coop.evictions.noticed    eviction notices sent to the server (sampled)
//	coop.read.latency.ns      per-read service time histogram
func (sys *System) Instrument(r *obs.Registry) {
	if r == nil {
		return
	}
	sys.m = &systemMetrics{
		readNs: r.Histogram("coop.read.latency.ns", obs.DurationBuckets),
	}
	st := &sys.st
	r.GaugeFunc("coop.reads", func() int64 { return st.Reads })
	r.GaugeFunc("coop.writes", func() int64 { return st.Writes })
	r.GaugeFunc("coop.hits.local", func() int64 { return st.LocalHits })
	r.GaugeFunc("coop.hits.remote", func() int64 { return st.RemoteHits })
	r.GaugeFunc("coop.hits.server", func() int64 { return st.ServerMemHits })
	r.GaugeFunc("coop.reads.disk", func() int64 { return st.DiskReads })
	r.GaugeFunc("coop.recirculations", func() int64 { return st.Recirculations })
	r.GaugeFunc("coop.evictions.noticed", func() int64 { return st.EvictionNotices })
}

// systemMetrics holds the system's histogram handles; nil on an
// uninstrumented system.
type systemMetrics struct {
	readNs *obs.Histogram // coop.read.latency.ns
}
