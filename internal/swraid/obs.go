package swraid

import "github.com/nowproject/now/internal/obs"

// Instrument attaches metrics and span tracing to the array. Call once
// per registry, on the array under study (xFS builds one array per
// client over the same stores — instrument one). A nil registry is a
// no-op. The array's counters are exported as gauges that read them
// live; each Rebuild records a raid.rebuild span (node = replacement
// store).
//
// Array metrics (names per docs/OBSERVABILITY.md):
//
//	raid.reads             logical array reads (sampled)
//	raid.writes            logical array writes (sampled)
//	raid.reads.degraded    reads served through parity/mirror (sampled)
//	raid.stores.dead       stores currently marked failed (sampled)
func (a *Array) Instrument(r *obs.Registry) {
	if r == nil {
		return
	}
	a.obs = r
	r.GaugeFunc("raid.reads", func() int64 { return a.reads })
	r.GaugeFunc("raid.writes", func() int64 { return a.writes })
	r.GaugeFunc("raid.reads.degraded", func() int64 { return a.degraded })
	r.GaugeFunc("raid.stores.dead", func() int64 { return int64(len(a.dead)) })
}
