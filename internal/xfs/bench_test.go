package xfs

import (
	"errors"
	"runtime"
	"testing"

	"github.com/nowproject/now/internal/sim"
)

// BenchmarkXFSReadDegraded measures cold-read bandwidth through the
// striped array before and after a storage-node crash, reporting both
// in virtual-time MB/s. This is the degraded-mode figure the fault
// studies lean on: the gap between healthy-MBps and degraded-MBps is
// the price of reconstruct-reads while a rebuild is pending. Several
// parallel reader streams keep the stores throughput-bound — a single
// latency-bound stream would hide the penalty (the reconstruct fans
// out across survivors and can even beat a lone single-store read).
func BenchmarkXFSReadDegraded(b *testing.B) {
	const (
		nodes     = 8
		blockSize = 4096
		blocks    = 64
		streams   = 4
	)
	for i := 0; i < b.N; i++ {
		e := sim.NewEngine(1)
		cfg := DefaultConfig(nodes)
		cfg.BlockBytes = blockSize
		// Tiny caches: reads must miss locally and in peers, so the
		// bench measures the array path, not cooperative caching.
		cfg.ClientCacheBlocks = 4
		sys, err := New(e, cfg)
		if err != nil {
			b.Fatal(err)
		}
		var healthyMBps, degradedMBps float64
		mbps := func(nbytes int64, d sim.Duration) float64 {
			return float64(nbytes) / 1e6 / (float64(d) / float64(sim.Second))
		}
		e.Spawn("bench", func(p *sim.Proc) {
			w := sys.Client(0)
			data := fill(blockSize, 7)
			for blk := 0; blk < blocks; blk++ {
				if err := w.Write(p, 1, uint32(blk), data); err != nil {
					b.Error(err)
					return
				}
			}
			if err := w.Sync(p); err != nil {
				b.Error(err)
				return
			}
			// read runs one full-file pass per stream concurrently and
			// returns the aggregate wall (virtual) time.
			read := func(name string) sim.Duration {
				wg := sim.NewWaitGroup(e, name)
				wg.Add(streams)
				t0 := p.Now()
				for r := 0; r < streams; r++ {
					c := sys.Client(2 + r)
					e.Spawn(name, func(rp *sim.Proc) {
						defer wg.Done()
						for blk := 0; blk < blocks; blk++ {
							if _, err := c.Read(rp, 1, uint32(blk)); err != nil {
								b.Error(err)
								return
							}
						}
					})
				}
				wg.Wait(p)
				return sim.Duration(p.Now() - t0)
			}
			healthyMBps = mbps(streams*blocks*blockSize, read("healthy"))
			sys.CrashStorage(nodes - 1)
			degradedMBps = mbps(streams*blocks*blockSize, read("degraded"))
			e.Stop()
		})
		if err := e.Run(); err != nil && !errors.Is(err, sim.ErrStopped) {
			b.Fatal(err)
		}
		e.Close()
		if i == 0 {
			b.ReportMetric(healthyMBps, "healthy-MBps")
			b.ReportMetric(degradedMBps, "degraded-MBps")
		}
	}
}

// BenchmarkXFSSeqScan measures a cold sequential scan of one file two
// ways — block-at-a-time Read on the serial protocol vs ReadAt windows
// on the pipelined path (range tokens + read-ahead + vectored stripe
// reads) — and reports both in virtual-time MB/s plus the speedup. This
// is the headline number for the pipelined data path: the gap is what
// batching the manager round trips and overlapping the fetches buys.
func BenchmarkXFSSeqScan(b *testing.B) {
	const (
		nodes     = 8
		blockSize = 4096
		blocks    = 64
		window    = 16
	)
	mbps := func(nbytes int64, d sim.Duration) float64 {
		return float64(nbytes) / 1e6 / (float64(d) / float64(sim.Second))
	}
	scan := func(cfg Config, vectored bool) sim.Duration {
		e := sim.NewEngine(1)
		defer e.Close()
		sys, err := New(e, cfg)
		if err != nil {
			b.Fatal(err)
		}
		var elapsed sim.Duration
		e.Spawn("bench", func(p *sim.Proc) {
			defer e.Stop()
			w := sys.Client(0)
			data := fill(blockSize, 7)
			for blk := 0; blk < blocks; blk++ {
				if err := w.Write(p, 1, uint32(blk), data); err != nil {
					b.Error(err)
					return
				}
			}
			if err := w.Sync(p); err != nil {
				b.Error(err)
				return
			}
			r := sys.Client(3)
			t0 := p.Now()
			if vectored {
				for blk := 0; blk < blocks; blk += window {
					if _, err := r.ReadAt(p, 1, uint32(blk), window); err != nil {
						b.Error(err)
						return
					}
				}
			} else {
				for blk := 0; blk < blocks; blk++ {
					if _, err := r.Read(p, 1, uint32(blk)); err != nil {
						b.Error(err)
						return
					}
				}
			}
			elapsed = sim.Duration(p.Now() - t0)
		})
		if err := e.Run(); err != nil && !errors.Is(err, sim.ErrStopped) {
			b.Fatal(err)
		}
		return elapsed
	}
	var serialMBps, pipelinedMBps float64
	for i := 0; i < b.N; i++ {
		base := DefaultConfig(nodes)
		base.BlockBytes = blockSize
		base.ClientCacheBlocks = 8
		serial := scan(base, false)

		pipe := PipelinedConfig(nodes)
		pipe.BlockBytes = blockSize
		pipe.ClientCacheBlocks = 2 * window
		pipelined := scan(pipe, true)

		if i == 0 {
			serialMBps = mbps(blocks*blockSize, serial)
			pipelinedMBps = mbps(blocks*blockSize, pipelined)
		}
	}
	b.ReportMetric(serialMBps, "serial-MBps")
	b.ReportMetric(pipelinedMBps, "pipelined-MBps")
	b.ReportMetric(pipelinedMBps/serialMBps, "speedup")
}

// TestReadMissAllocBound bounds the host allocations of one steady-state
// read miss: warm system, the block evicted from every cache, so the
// read pays a manager token call and a RAID read. The block is copied
// once, into the caller's buffer; a defensive copy creeping back into
// the store, the array or the client cache breaks the byte bound.
func TestReadMissAllocBound(t *testing.T) {
	const (
		blockBytes = 8192
		blocks     = 64 // 4x the client cache: every cyclic re-read misses
		// Measured at 97 objects and 13.7 KB (the block plus about
		// 5.5 KB of protocol state) per read.
		maxAllocs = 100
		maxBytes  = 2 * blockBytes
	)
	cfg := DefaultConfig(6)
	cfg.BlockBytes = blockBytes
	cfg.ClientCacheBlocks = 16
	e, sys := buildFSWith(t, cfg)
	var allocs float64
	var bytesPerRead, misses uint64
	drive(t, e, func(p *sim.Proc) {
		w, r := sys.Client(0), sys.Client(1)
		for blk := uint32(0); blk < blocks; blk++ {
			if err := w.Write(p, 1, blk, fill(blockBytes, byte(blk))); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Sync(p); err != nil {
			t.Fatal(err)
		}
		// Drop the writer's clean copies so reads go to storage.
		for blk := uint32(0); blk < 16; blk++ {
			if _, err := w.Read(p, 2, blk); err != nil {
				t.Fatal(err)
			}
		}
		next := uint32(0)
		read := func() {
			if _, err := r.Read(p, 1, next%blocks); err != nil {
				t.Fatal(err)
			}
			next++
		}
		for i := 0; i < 2*blocks; i++ {
			read()
		}
		before := sys.Stats().StorageReads
		allocs = testing.AllocsPerRun(blocks, read)
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for i := 0; i < blocks; i++ {
			read()
		}
		runtime.ReadMemStats(&m1)
		bytesPerRead = (m1.TotalAlloc - m0.TotalAlloc) / blocks
		misses = uint64(sys.Stats().StorageReads - before)
	})
	if want := uint64(2*blocks + 1); misses != want {
		t.Fatalf("%d of %d measured reads went to storage, want all", misses, want)
	}
	t.Logf("one read miss: %.0f allocs, %d bytes", allocs, bytesPerRead)
	if allocs > maxAllocs || bytesPerRead > maxBytes {
		t.Fatalf("one read miss allocated %.0f objects and %d bytes, bounds %d and %d",
			allocs, bytesPerRead, maxAllocs, maxBytes)
	}
}
