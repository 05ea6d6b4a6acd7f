// Frontdoor: the parts of the facade the other examples don't touch —
// collective operations, deterministic fault injection, and one-call
// metrics instrumentation — composed into a single observable run, all
// through the public now API.
package main

import (
	"errors"
	"fmt"
	"log"

	now "github.com/nowproject/now"
)

func main() {
	const nodes = 16
	e := now.NewEngine(1)

	// Wire a fabric of workstations speaking Active Messages.
	fab, err := now.NewFabric(e, now.Myrinet(nodes))
	if err != nil {
		log.Fatal(err)
	}
	eps := make([]*now.AMEndpoint, nodes)
	for i := range eps {
		n := now.NewNode(e, now.DefaultNodeConfig(now.NodeID(i)))
		eps[i] = now.NewAMEndpoint(e, n, fab, now.DefaultAMConfig())
	}

	// Collectives over the endpoints: every rank barriers, then runs a
	// personalized all-to-all exchange.
	comm, err := now.NewComm(e, eps, now.CollectiveConfig{Arity: 4})
	if err != nil {
		log.Fatal(err)
	}

	// A serverless file system on its own engine, with the pipelined
	// data path, plus a scripted fault: its first storage node dies
	// mid-run and reads go degraded through RAID parity.
	e2 := now.NewEngine(1)
	fsys, err := now.NewXFS(e2, now.PipelinedXFSConfig(8))
	if err != nil {
		log.Fatal(err)
	}
	plan := now.ScriptedFaultPlan("lose-a-disk",
		now.Fault{At: now.Time(200 * now.Millisecond), Kind: now.FaultDiskFail, Node: 7})
	inj := now.NewInjector(e2, now.NewXFSFaultTarget(fsys), plan, nil)
	inj.Schedule()

	// One registry per engine; InstrumentAll wires every subsystem.
	reg := now.NewRegistry()
	now.InstrumentAll(reg, e, fab, comm)
	reg2 := now.NewRegistry()
	now.InstrumentAll(reg2, e2, fsys)

	// Drive the collectives: all ranks in lockstep.
	wg := now.NewWaitGroup(e, "ranks")
	wg.Add(nodes)
	for r := 0; r < nodes; r++ {
		r := r
		e.Spawn("rank", func(p *now.Proc) {
			defer wg.Done()
			if err := now.Barrier(p, comm, r); err != nil {
				log.Fatal(err)
			}
			if err := now.AllToAll(p, comm, r, 1024); err != nil {
				log.Fatal(err)
			}
		})
	}
	e.Spawn("monitor", func(p *now.Proc) {
		wg.Wait(p)
		fmt.Printf("collectives: %d ranks barriered and exchanged %d-byte blocks by t=%v\n",
			comm.Size(), 1024, now.Duration(p.Now()))
		e.Stop()
	})
	if err := e.Run(); !errors.Is(err, now.ErrStopped) {
		log.Fatal(err)
	}
	e.Close()

	// Drive the file system across the injected disk failure.
	e2.Spawn("writer", func(p *now.Proc) {
		data := make([]byte, 16*8192)
		for i := range data {
			data[i] = byte(i)
		}
		w := fsys.Client(0)
		if err := w.WriteAt(p, now.FileID(1), 0, data); err != nil {
			log.Fatal(err)
		}
		if err := w.Sync(p); err != nil {
			log.Fatal(err)
		}
		p.Sleep(300 * now.Millisecond) // the scripted disk failure lands here
		got, err := fsys.Client(3).ReadAt(p, now.FileID(1), 0, 16)
		if err != nil {
			log.Fatal(err)
		}
		st := fsys.Stats()
		fmt.Printf("xfs: scanned %d KB after a disk failure (%d faults applied), %d range round trips\n",
			len(got)>>10, inj.Applied(), st.RangeReads)
		e2.Stop()
	})
	if err := e2.Run(); !errors.Is(err, now.ErrStopped) {
		log.Fatal(err)
	}
	e2.Close()

	// Everything above was observed; show a few of the collected
	// metrics.
	fmt.Println("metrics:")
	for _, pick := range []struct {
		r    *now.MetricsRegistry
		name string
	}{
		{reg, "collective.barriers"},
		{reg, "net.delivered"},
		{reg2, "xfs.batch.tokens"},
		{reg2, "xfs.batch.commits"},
	} {
		if v, ok := pick.r.CounterValue(pick.name); ok {
			fmt.Printf("  %-22s %d\n", pick.name, v)
		} else if v, ok := pick.r.GaugeValue(pick.name); ok {
			fmt.Printf("  %-22s %d\n", pick.name, v)
		}
	}
	// The full registries export as stable JSON for tooling:
	// reg2.WriteMetricsJSON(os.Stdout) — see docs/OBSERVABILITY.md.
}
