package netsim

import "github.com/nowproject/now/internal/obs"

// fabricMetrics holds the fabric's histogram handles; nil on an
// unobserved fabric, so the delivery path pays a single branch. The
// packet counters are not here: Stats is their only ledger.
type fabricMetrics struct {
	latency   *obs.Histogram // net.am.latency.ns
	topoHops  *obs.Histogram // net.topo.hops (topology fabrics only)
	topoQueue *obs.Histogram // net.topo.queue.ns (topology fabrics only)
}

// Instrument attaches metrics collectors to the fabric. Call once per
// registry (metric names are fixed, so a second fabric on the same
// registry would collide). A nil registry is a no-op. The net.*
// counters read the fabric's Stats fields live; the utilisation gauges
// read the links at every registry read.
//
// Fabric metrics (names per docs/OBSERVABILITY.md):
//
//	net.offered              packets that finished transmission (offered load)
//	net.offered.bytes        wire bytes offered (headers included)
//	net.delivered            packets handed to a delivery handler
//	net.delivered.bytes      wire bytes delivered (headers included)
//	net.drops                packets lost (background loss + injected faults);
//	                         net.offered - net.delivered == net.drops
//	net.drops.injected       subset of net.drops caused by injected
//	                         partitions and link faults (internal/faults)
//	net.sends.self           sends where src == dst (wire bypassed; counted
//	                         in neither offered nor delivered)
//	net.cross.sent           packets handed to another partition (registered
//	                         on sharded fabrics only; counted at the source)
//	net.cross.recv           packets injected from another partition
//	                         (sharded fabrics only)
//	net.topo.hops            switch traversals per delivered packet
//	                         (topology fabrics only; crossbar-equivalent
//	                         final hop included, so the flat fabric's 1)
//	net.topo.queue.ns        internal-link + rx queueing delay beyond the
//	                         uncontended cut-through time (topology
//	                         fabrics only)
//	net.am.latency.ns        send-to-delivery latency histogram
//	net.medium.util.ppm      shared-medium utilization, ppm (sampled)
//	net.links.tx.util.ppm.mean  mean tx-link utilization, ppm (sampled;
//	                         over locally owned links on a sharded fabric)
//	net.links.tx.util.ppm.max   max tx-link utilization, ppm (sampled)
func (f *Fabric) Instrument(r *obs.Registry) {
	if r == nil {
		return
	}
	r.CounterFunc("net.offered", func() int64 { return f.stats.Offered })
	r.CounterFunc("net.offered.bytes", func() int64 { return f.stats.OfferedBytes })
	r.CounterFunc("net.delivered", func() int64 { return f.stats.Delivered })
	r.CounterFunc("net.delivered.bytes", func() int64 { return f.stats.DeliveredBytes })
	r.CounterFunc("net.drops", func() int64 { return f.stats.Drops })
	r.CounterFunc("net.drops.injected", func() int64 { return f.stats.InjectedDrops })
	r.CounterFunc("net.sends.self", func() int64 { return f.stats.SelfSends })
	f.m = &fabricMetrics{latency: r.Histogram("net.am.latency.ns", obs.DurationBuckets)}
	if f.cross != nil {
		// Partition fabrics only: a plain fabric's export must not grow
		// rows it can never increment (classic-run goldens stay stable).
		r.CounterFunc("net.cross.sent", func() int64 { return f.stats.CrossSent })
		r.CounterFunc("net.cross.recv", func() int64 { return f.stats.CrossRecv })
	}
	if f.topo != nil {
		// Topology fabrics only, for the same golden-stability reason:
		// the flat crossbar's export is unchanged by the topology seam.
		f.m.topoHops = r.Histogram("net.topo.hops", obs.DepthBuckets)
		f.m.topoQueue = r.Histogram("net.topo.queue.ns", obs.DurationBuckets)
	}
	if f.medium != nil {
		r.GaugeFunc("net.medium.util.ppm", func() int64 { return obs.Ratio(f.medium.Utilization()) })
	}
	if len(f.txLinks) > 0 {
		r.GaugeFunc("net.links.tx.util.ppm.mean", func() int64 { mean, _ := f.txUtil(); return mean })
		r.GaugeFunc("net.links.tx.util.ppm.max", func() int64 { _, max := f.txUtil(); return max })
	}
}

// txUtil reports the mean and max tx-link utilisation in ppm over the
// links this fabric owns (a sharded partition skips the nil slots of
// nodes it does not own); both 0 when it owns none.
func (f *Fabric) txUtil() (mean, max int64) {
	var sum, n int64
	for _, l := range f.txLinks {
		if l == nil {
			continue
		}
		u := obs.Ratio(l.Utilization())
		sum += u
		if u > max {
			max = u
		}
		n++
	}
	if n > 0 {
		mean = sum / n
	}
	return mean, max
}
