package xfs

import "github.com/nowproject/now/internal/obs"

// Instrument attaches metrics and span tracing to the system. Call once
// per registry, after New. A nil registry is a no-op. Each Stats
// counter is exported as a gauge that reads its field live; ownership
// transfers additionally record an xfs.ownership.transfer span (node =
// the manager's hosting node, annotated with old → new owner).
//
// System metrics (names per docs/OBSERVABILITY.md):
//
//	xfs.reads                 client reads (sampled)
//	xfs.writes                client writes (sampled)
//	xfs.hits.local            reads served from the local cache (sampled)
//	xfs.transfers.cache       reads served from a peer's cache (sampled)
//	xfs.reads.storage         reads that went to the RAID array (sampled)
//	xfs.writes.storage        log writes to the RAID array (sampled)
//	xfs.invalidations         reader copies invalidated on write (sampled)
//	xfs.owner.yields          ownership migrations between writers (sampled)
//	xfs.failovers             manager failovers to the standby (sampled)
//	xfs.batch.range.reads     range-token read round trips (sampled)
//	xfs.batch.range.writes    range-token write round trips (sampled)
//	xfs.batch.tokens          block tokens granted via range messages (sampled)
//	xfs.batch.evicts          sync/evict notes delivered in batches (sampled)
//	xfs.batch.commits         write-behind group commits (sampled)
//	xfs.prefetch.issued       blocks fetched by read-ahead (sampled)
//	xfs.prefetch.hits         reads served by a prefetched block (sampled)
//	xfs.prefetch.wasted       prefetched blocks evicted unread (sampled)
func (sys *System) Instrument(r *obs.Registry) {
	if r == nil {
		return
	}
	sys.obs = r
	st := &sys.stats
	r.GaugeFunc("xfs.reads", func() int64 { return st.Reads })
	r.GaugeFunc("xfs.writes", func() int64 { return st.Writes })
	r.GaugeFunc("xfs.hits.local", func() int64 { return st.LocalHits })
	r.GaugeFunc("xfs.transfers.cache", func() int64 { return st.CacheTransfers })
	r.GaugeFunc("xfs.reads.storage", func() int64 { return st.StorageReads })
	r.GaugeFunc("xfs.writes.storage", func() int64 { return st.StorageWrites })
	r.GaugeFunc("xfs.invalidations", func() int64 { return st.Invalidations })
	r.GaugeFunc("xfs.owner.yields", func() int64 { return st.OwnerYields })
	r.GaugeFunc("xfs.failovers", func() int64 { return st.Failovers })
	r.GaugeFunc("xfs.batch.range.reads", func() int64 { return st.RangeReads })
	r.GaugeFunc("xfs.batch.range.writes", func() int64 { return st.RangeWrites })
	r.GaugeFunc("xfs.batch.tokens", func() int64 { return st.BatchedTokens })
	r.GaugeFunc("xfs.batch.evicts", func() int64 { return st.BatchedEvicts })
	r.GaugeFunc("xfs.batch.commits", func() int64 { return st.GroupCommits })
	r.GaugeFunc("xfs.prefetch.issued", func() int64 { return st.PrefetchIssued })
	r.GaugeFunc("xfs.prefetch.hits", func() int64 { return st.PrefetchHits })
	r.GaugeFunc("xfs.prefetch.wasted", func() int64 { return st.PrefetchWasted })
}
