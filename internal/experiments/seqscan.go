package experiments

import (
	"errors"
	"fmt"

	"github.com/nowproject/now/internal/obs"
	"github.com/nowproject/now/internal/sim"
	"github.com/nowproject/now/internal/stats"
	"github.com/nowproject/now/internal/xfs"
)

// The ST2 scan: a file of seqScanBlocks blocks of seqScanBlockBytes
// (the xFS block and RAID chunk size), read by the pipelined scan in
// seqScanWindow-block ReadAt spans, through a reader cache of
// seqScanCacheBlocks — well below the file size, so the scan stays cold
// and measures the data path, not the cache.
const (
	seqScanBlocks      = 64
	seqScanBlockBytes  = 4096
	seqScanWindow      = 16
	seqScanCacheBlocks = 40
)

// SeqScanRow is one cluster size of the ST2 study.
type SeqScanRow struct {
	Nodes         int
	SerialMBps    float64 // block-at-a-time Read on the serial protocol
	PipelinedMBps float64 // ReadAt windows + range tokens + read-ahead
	Speedup       float64
	RangeReads    int64 // manager round trips saved to this many
	BatchedTokens int64 // block tokens granted through them
	PrefetchHits  int64
}

// SeqScan is experiment ST2 over the given cluster sizes: cold
// sequential-read bandwidth through xFS before and after pipelining the
// data path. The serial protocol pays one manager round trip and one
// fetch per block, so a scan runs at request latency regardless of how
// much aggregate disk and network bandwidth the building has — exactly
// the gap the paper's "opportunity of the network as backplane"
// argument says a NOW should close. The pipelined path batches the
// round trips into range tokens, overlaps peer and stripe fetches, and
// read-ahead keeps the array busy while the application consumes; the
// speedup column is what that buys at each cluster size.
func SeqScan(sizes []int) (Report, []SeqScanRow, error) {
	rows := make([]SeqScanRow, 0, len(sizes))
	regs := make(map[string]*obs.Registry, 2*len(sizes))
	for _, n := range sizes {
		serial, sReg, _, err := seqScanOne(n, false)
		if err != nil {
			return Report{}, nil, fmt.Errorf("st2 n=%d serial: %w", n, err)
		}
		pipelined, pReg, st, err := seqScanOne(n, true)
		if err != nil {
			return Report{}, nil, fmt.Errorf("st2 n=%d pipelined: %w", n, err)
		}
		rows = append(rows, SeqScanRow{
			Nodes:         n,
			SerialMBps:    serial,
			PipelinedMBps: pipelined,
			Speedup:       stats.Ratio(pipelined, serial),
			RangeReads:    st.RangeReads,
			BatchedTokens: st.BatchedTokens,
			PrefetchHits:  st.PrefetchHits,
		})
		regs[fmt.Sprintf("n%04d-serial", n)] = sReg
		regs[fmt.Sprintf("n%04d-pipelined", n)] = pReg
	}
	table := stats.NewTable("ST2: xFS sequential scan, serial vs pipelined data path",
		"nodes", "serial MB/s", "pipelined MB/s", "speedup", "range RPCs", "tokens/RPC", "prefetch hits")
	for _, r := range rows {
		perRPC := "-"
		if r.RangeReads > 0 {
			perRPC = fmt.Sprintf("%.1f", float64(r.BatchedTokens)/float64(r.RangeReads))
		}
		table.AddRow(
			fmt.Sprintf("%d", r.Nodes),
			fmt.Sprintf("%.2f", r.SerialMBps),
			fmt.Sprintf("%.2f", r.PipelinedMBps),
			fmt.Sprintf("%.2f", r.Speedup),
			fmt.Sprintf("%d", r.RangeReads),
			perRPC,
			fmt.Sprintf("%d", r.PrefetchHits),
		)
	}
	return Report{
		ID:    "ST2",
		Title: "xFS cold sequential-read bandwidth, serial vs pipelined",
		Table: table,
		Notes: fmt.Sprintf("%d×%d-byte blocks per scan, %d-block ReadAt windows, %d-block reader cache; pipelined = range tokens + vectored stripe reads + 8-block read-ahead + write-behind",
			seqScanBlocks, seqScanBlockBytes, seqScanWindow, seqScanCacheBlocks),
		Obs: regs,
	}, rows, nil
}

// seqScanOne measures one cold scan at one cluster size and returns
// the virtual-time bandwidth, the run's registry, and the xFS stats.
func seqScanOne(n int, pipelined bool) (float64, *obs.Registry, xfs.Stats, error) {
	e := sim.NewEngine(1)
	defer e.Close()
	reg := obs.NewRegistry()
	e.Observe(reg)
	xcfg := xfs.DefaultConfig(n)
	if pipelined {
		xcfg = xfs.PipelinedConfig(n)
	}
	xcfg.BlockBytes = seqScanBlockBytes
	xcfg.ClientCacheBlocks = seqScanCacheBlocks
	sys, err := xfs.New(e, xcfg)
	if err != nil {
		return 0, nil, xfs.Stats{}, err
	}
	sys.Instrument(reg)
	var mbps float64
	e.Spawn("st2", func(p *sim.Proc) {
		defer e.Stop()
		w := sys.Client(0)
		data := make([]byte, seqScanBlockBytes)
		for i := range data {
			data[i] = byte(i)
		}
		for blk := 0; blk < seqScanBlocks; blk++ {
			if err := w.Write(p, 1, uint32(blk), data); err != nil {
				e.Fail(err)
				return
			}
		}
		if err := w.Sync(p); err != nil {
			e.Fail(err)
			return
		}
		// The reader is far from both the writer and the managers; its
		// cache holds half the file at most, so the scan stays cold.
		r := sys.Client(n / 2)
		t0 := p.Now()
		if pipelined {
			for blk := 0; blk < seqScanBlocks; blk += seqScanWindow {
				span := seqScanWindow
				if rem := seqScanBlocks - blk; rem < span {
					span = rem
				}
				if _, err := r.ReadAt(p, 1, uint32(blk), span); err != nil {
					e.Fail(err)
					return
				}
			}
		} else {
			for blk := 0; blk < seqScanBlocks; blk++ {
				if _, err := r.Read(p, 1, uint32(blk)); err != nil {
					e.Fail(err)
					return
				}
			}
		}
		elapsed := p.Now() - t0
		mbps = float64(seqScanBlocks*seqScanBlockBytes) / elapsed.Seconds() / 1e6
	})
	if err := e.Run(); err != nil && !errors.Is(err, sim.ErrStopped) {
		return 0, nil, xfs.Stats{}, err
	}
	return mbps, reg, sys.Stats(), nil
}
