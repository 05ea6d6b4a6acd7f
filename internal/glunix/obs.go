package glunix

import "github.com/nowproject/now/internal/obs"

// clusterMetrics holds the global layer's histogram handles; nil on an
// uninstrumented cluster.
type clusterMetrics struct {
	migrateNs   *obs.Histogram // glunix.migrate.latency.ns
	userDelayNs *obs.Histogram // glunix.user.delay.ns
}

// Instrument attaches metrics and span tracing to the cluster. Call it
// once, after New, on the registry the engine observes. A nil registry
// is a no-op. MasterStats is the only ledger for the master's tallies:
// each is exported as a gauge that reads its field live, and the
// workstation census is counted at every registry read. Migration and
// user-delay latencies are recorded as histograms at the point they
// complete.
//
// Cluster metrics (names per docs/OBSERVABILITY.md):
//
//	glunix.jobs.submitted        jobs handed to the master (sampled)
//	glunix.jobs.completed        jobs finished (sampled)
//	glunix.migrations            guest migrations completed (sampled)
//	glunix.evictions             user returns to recruited machines (sampled)
//	glunix.evictions.stalled     evictions that waited for an idle target (sampled)
//	glunix.restarts              job restarts from checkpoint (sampled)
//	glunix.nodes.down            workstations declared down (sampled)
//	glunix.rejoins               recovered workstations re-admitted (sampled)
//	glunix.user.disturbed        IgnoreUser policy: user shared machine (sampled)
//	glunix.image.saves           user images parked on buddies (sampled)
//	glunix.image.restores        user images restored on return (sampled)
//	glunix.checkpoints           guest checkpoint transfers (sampled)
//	glunix.ws.idle               recruitable workstations now (sampled)
//	glunix.ws.recruited          workstations hosting a guest (sampled)
//	glunix.ws.userbusy           workstations with an active user (sampled)
//	glunix.ws.down               workstations currently down (sampled)
//	glunix.migrate.latency.ns    wall time of each completed migration
//	glunix.user.delay.ns         time each returning user waited
//
// Spans: glunix.schedule (one per gang placement, node -1),
// glunix.migrate (per migration, node = source workstation),
// glunix.checkpoint (per guest checkpoint, node = workstation).
func (c *Cluster) Instrument(r *obs.Registry) {
	if r == nil {
		return
	}
	c.obs = r
	c.cm = &clusterMetrics{
		migrateNs:   r.Histogram("glunix.migrate.latency.ns", obs.DurationBuckets),
		userDelayNs: r.Histogram("glunix.user.delay.ns", obs.DurationBuckets),
	}
	m := c.Master
	st := &m.st
	r.GaugeFunc("glunix.jobs.submitted", func() int64 { return st.JobsSubmitted })
	r.GaugeFunc("glunix.jobs.completed", func() int64 { return st.JobsCompleted })
	r.GaugeFunc("glunix.migrations", func() int64 { return st.Migrations })
	r.GaugeFunc("glunix.evictions", func() int64 { return st.Evictions })
	r.GaugeFunc("glunix.evictions.stalled", func() int64 { return st.StalledEvicts })
	r.GaugeFunc("glunix.restarts", func() int64 { return st.Restarts })
	r.GaugeFunc("glunix.nodes.down", func() int64 { return st.NodesDown })
	r.GaugeFunc("glunix.rejoins", func() int64 { return st.Rejoins })
	r.GaugeFunc("glunix.user.disturbed", func() int64 { return st.UserDisturbed })
	r.GaugeFunc("glunix.image.saves", func() int64 { return st.ImageSaves })
	r.GaugeFunc("glunix.image.restores", func() int64 { return st.ImageRestores })
	r.GaugeFunc("glunix.checkpoints", func() int64 { return st.CheckpointOps })
	r.GaugeFunc("glunix.ws.idle", func() int64 { return int64(m.AvailableCount()) })
	census := func(name string, in func(*wsState) bool) {
		r.GaugeFunc(name, func() int64 {
			var n int64
			for i := 1; i < len(m.ws); i++ {
				if in(&m.ws[i]) {
					n++
				}
			}
			return n
		})
	}
	census("glunix.ws.recruited", func(s *wsState) bool { return s.guest != nil })
	census("glunix.ws.userbusy", func(s *wsState) bool { return s.userBusy })
	census("glunix.ws.down", func(s *wsState) bool { return !s.up })
}
