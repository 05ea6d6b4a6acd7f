package obs

import (
	"fmt"
	"sort"
)

// Merged combines several registries into one stable-ordered snapshot
// registry — the export path for sharded runs, where each partition
// accumulates metrics into its own registry (single-threaded, like the
// engine that feeds it) and the merged view must be independent of how
// many workers executed the partitions.
//
// Merge rules, by metric kind:
//
//   - counters sum;
//   - histograms with the same name must share a bucket layout (all the
//     standard layouts are package constants, so they do) and merge by
//     element-wise addition;
//   - gauges sum, EXCEPT names ending in ".max" and the engine clock
//     "sim.time.now.ns", which take the maximum — a high-water mark or
//     a clock summed across partitions would be meaningless;
//   - spans concatenate and stable-sort by start time (ties keep source
//     order), with IDs renumbered and parent links remapped so the
//     merged trace satisfies the same id = position+1 invariant as a
//     native one.
//
// A name that appears in only some sources merges with the identity for
// its rule, so heterogeneous registries (e.g. one coordinator registry
// plus N partition registries) merge cleanly.
//
// Merged reads func-backed metrics from their ledgers, so it must only
// be called while the simulation feeding the sources is quiescent. The
// result is a value copy: later activity in the sources does not flow
// through, and the merged registry's spans are read-only.
func Merged(srcs ...*Registry) *Registry {
	dst := NewRegistry()
	type histAcc struct {
		bounds      []int64
		counts      []int64
		n, sum, max int64
	}
	var (
		counterOrder, gaugeOrder, histOrder []string
		counters                            = map[string]int64{}
		gauges                              = map[string]int64{}
		gaugeSeen                           = map[string]bool{}
		hists                               = map[string]*histAcc{}
	)
	for _, src := range srcs {
		if src == nil {
			continue
		}
		for _, c := range src.counters {
			if _, ok := counters[c.name]; !ok {
				counterOrder = append(counterOrder, c.name)
			}
			counters[c.name] += c.Value()
		}
		for _, g := range src.gauges {
			v := g.Value()
			if !gaugeSeen[g.name] {
				gaugeSeen[g.name] = true
				gaugeOrder = append(gaugeOrder, g.name)
				gauges[g.name] = v
				continue
			}
			if mergeGaugeMax(g.name) {
				if v > gauges[g.name] {
					gauges[g.name] = v
				}
			} else {
				gauges[g.name] += v
			}
		}
		for _, h := range src.hists {
			acc := hists[h.name]
			if acc == nil {
				acc = &histAcc{bounds: h.bounds, counts: make([]int64, len(h.counts))}
				hists[h.name] = acc
				histOrder = append(histOrder, h.name)
			}
			if len(acc.counts) != len(h.counts) {
				panic(fmt.Sprintf("obs: merging histogram %q with mismatched bucket layouts", h.name))
			}
			for i, c := range h.counts {
				acc.counts[i] += c
			}
			if h.n > 0 && (acc.n == 0 || h.max > acc.max) {
				acc.max = h.max
			}
			acc.n += h.n
			acc.sum += h.sum
		}
	}
	for _, name := range counterOrder {
		dst.Counter(name).Add(counters[name])
	}
	for _, name := range gaugeOrder {
		dst.Gauge(name).Set(gauges[name])
	}
	for _, name := range histOrder {
		acc := hists[name]
		h := dst.Histogram(name, acc.bounds)
		copy(h.counts, acc.counts)
		h.n, h.sum, h.max = acc.n, acc.sum, acc.max
	}
	mergeSpans(dst, srcs)
	return dst
}

// mergeGaugeMax reports whether a gauge merges by maximum rather than
// sum: high-water marks and the virtual clock.
func mergeGaugeMax(name string) bool {
	if name == "sim.time.now.ns" {
		return true
	}
	const suf = ".max"
	return len(name) >= len(suf) && name[len(name)-len(suf):] == suf
}

// mergeSpans interleaves every source's spans by start time and rebuilds
// the id = position+1 invariant, remapping parent links.
func mergeSpans(dst *Registry, srcs []*Registry) {
	type tagged struct {
		Span
		old SpanID // globally offset original id
	}
	var all []tagged
	offset := SpanID(0)
	for _, src := range srcs {
		if src == nil {
			continue
		}
		for _, s := range src.spans {
			t := tagged{Span: s, old: s.ID + offset}
			if t.Parent > 0 {
				t.Parent += offset
			}
			all = append(all, t)
		}
		offset += SpanID(len(src.spans))
	}
	if len(all) == 0 {
		return
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].Start < all[j].Start })
	remap := make(map[SpanID]SpanID, len(all))
	for i := range all {
		remap[all[i].old] = SpanID(i + 1)
	}
	dst.spans = make([]Span, len(all))
	for i := range all {
		s := all[i].Span
		s.ID = SpanID(i + 1)
		if s.Parent > 0 {
			s.Parent = remap[s.Parent]
		}
		dst.spans[i] = s
	}
}
