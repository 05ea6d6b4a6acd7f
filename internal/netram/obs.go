package netram

import "github.com/nowproject/now/internal/obs"

// pagerMetrics holds the pager's histogram handle; nil on an
// uninstrumented pager.
type pagerMetrics struct {
	faultNs *obs.Histogram // netram.fault.latency.ns
}

// Instrument attaches metrics to the pager. Call once per registry
// (metric names are fixed; instrument the pager under study, not every
// node's). A nil registry is a no-op. Each Stats counter is exported
// as a gauge that reads its field live; fault service latency is
// recorded as a histogram in Touch.
//
// Pager metrics (names per docs/OBSERVABILITY.md):
//
//	netram.faults             page faults taken (sampled)
//	netram.fills.zero         demand-zero fills (sampled)
//	netram.hits.remote        faults served from network RAM (sampled)
//	netram.reads.disk         faults served from local disk (sampled)
//	netram.stores.remote      evictions pushed to network RAM (sampled)
//	netram.writes.disk        evictions written to local disk (sampled)
//	netram.pages.returned     pages pushed back by reclaiming servers (sampled)
//	netram.pages.lost         remote pages lost to server crashes (sampled)
//	netram.frames.free        free donated frames network-wide (sampled)
//	netram.fault.latency.ns   fault service time histogram
func (pg *Pager) Instrument(r *obs.Registry) {
	if r == nil {
		return
	}
	pg.m = &pagerMetrics{
		faultNs: r.Histogram("netram.fault.latency.ns", obs.DurationBuckets),
	}
	st := &pg.st
	r.GaugeFunc("netram.faults", func() int64 { return st.Faults })
	r.GaugeFunc("netram.fills.zero", func() int64 { return st.ZeroFills })
	r.GaugeFunc("netram.hits.remote", func() int64 { return st.RemoteHits })
	r.GaugeFunc("netram.reads.disk", func() int64 { return st.DiskReads })
	r.GaugeFunc("netram.stores.remote", func() int64 { return st.RemoteStores })
	r.GaugeFunc("netram.writes.disk", func() int64 { return st.DiskWrites })
	r.GaugeFunc("netram.pages.returned", func() int64 { return st.Returned })
	r.GaugeFunc("netram.pages.lost", func() int64 { return st.LostPages })
	r.GaugeFunc("netram.frames.free", func() int64 { return int64(pg.reg.TotalFree()) })
}
