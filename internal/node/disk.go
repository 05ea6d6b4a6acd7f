package node

import (
	"github.com/nowproject/now/internal/sim"
)

// Disk models the workstation's single spindle: one request at a time,
// each paying an average positioning cost (seek + rotation) unless it is
// sequential with the previous request, plus media transfer time.
type Disk struct {
	eng *sim.Engine
	cfg DiskConfig
	arm *sim.Resource

	reads, writes int64
	bytesRead     int64
	bytesWritten  int64
	lastEnd       int64 // byte offset following the last access, for sequentiality
}

func newDisk(e *sim.Engine, name string, cfg DiskConfig) *Disk {
	return &Disk{eng: e, cfg: cfg, arm: sim.NewResource(e, name, 1), lastEnd: -1}
}

// Read performs a random read of n bytes at offset, blocking p for
// positioning plus transfer (and queueing behind other requests).
func (d *Disk) Read(p *sim.Proc, offset int64, n int) {
	d.access(p, offset, n, false)
	d.reads++
	d.bytesRead += int64(n)
}

// Write performs a write of n bytes at offset.
func (d *Disk) Write(p *sim.Proc, offset int64, n int) {
	d.access(p, offset, n, false)
	d.writes++
	d.bytesWritten += int64(n)
}

// ReadSeq reads n bytes continuing wherever the arm is, paying transfer
// only if the previous access ended here — the streaming path used by
// the software RAID and parallel file system.
func (d *Disk) ReadSeq(p *sim.Proc, offset int64, n int) {
	d.access(p, offset, n, true)
	d.reads++
	d.bytesRead += int64(n)
}

// WriteSeq is the sequential-write analogue of ReadSeq (log-structured
// segment writes in xFS).
func (d *Disk) WriteSeq(p *sim.Proc, offset int64, n int) {
	d.access(p, offset, n, true)
	d.writes++
	d.bytesWritten += int64(n)
}

func (d *Disk) access(p *sim.Proc, offset int64, n int, seqHint bool) {
	cost := sim.PerByte(int64(n), d.cfg.BandwidthMBps*1e6)
	if !seqHint || offset != d.lastEnd {
		cost += d.cfg.AvgAccess
	}
	d.arm.Use(p, 1, cost)
	d.lastEnd = offset + int64(n)
}

// Stats returns (reads, writes, bytesRead, bytesWritten).
func (d *Disk) Stats() (reads, writes, bytesRead, bytesWritten int64) {
	return d.reads, d.writes, d.bytesRead, d.bytesWritten
}
