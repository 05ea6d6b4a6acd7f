package sim

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// This file implements the sharded event loop: N per-partition Engines
// advancing in parallel under a conservative-lookahead protocol, in the
// Chandy–Misra–Bryant tradition but windowed. Virtual time is cut into
// fixed windows of width W, where W is the minimum cross-partition
// message latency (for a netsim fabric, the wire latency — see
// netsim.NewSharded). A message sent while executing window k arrives no
// earlier than the start of window k+1, so a partition may execute
// window k as soon as every peer has finished window k-1; no rollback is
// ever needed.
//
// Determinism is the design center, and it comes from a deliberate
// split: the *partition map* is part of the workload configuration and
// never changes with core count, while the Workers knob only bounds how
// many partitions execute their windows concurrently. Each partition has
// its own Engine (own clock, queues, sequence numbers) and its own RNG
// stream split from the master seed, and cross-partition messages are
// injected at window boundaries in (At, Src, Seq) order. Every input a
// partition's engine ever sees is therefore a pure function of the seed
// and the workload — never of goroutine scheduling — which is what makes
// runs byte-identical at 1, 2, 4, or 8 workers and lets the race
// detector certify the memory model separately from the golden tests
// certifying the schedule.
//
// Horizon exchange is barrier-free: each partition publishes its horizon
// (the end of its last finished window) in an atomic, and peers spin on
// a cheap gate — blocking on a capacity-1 wake channel when the horizon
// is not yet reached — rather than rendezvousing at a central barrier.
// On dense topologies this degenerates to lockstep, which is exactly the
// conservative bound; on sparse lookahead matrices partitions slide past
// each other up to the pairwise latency.

// ShardedConfig configures a ShardedEngine.
type ShardedConfig struct {
	// Parts is the number of logical partitions. It is part of the
	// workload's deterministic identity: changing it changes the
	// schedule, so studies fix Parts and vary only Workers.
	Parts int
	// Workers bounds how many partitions execute a window at the same
	// wall-clock moment. 0 or >= Parts means fully parallel. Any value
	// produces the same simulation output.
	Workers int
	// Seed is the master seed; each partition's engine gets an
	// independent stream split from it (splitmix64 finalizer), so
	// partition RNG draws are unaffected by the draws of other
	// partitions.
	Seed int64
	// Window is the conservative lookahead W: the minimum virtual time
	// for a cross-partition message to arrive. Messages sent in window k
	// must arrive at or after the start of window k+1; Send enforces
	// this. Must be > 0.
	Window Duration
}

// ShardMsg is a cross-partition message: an opaque payload to be
// delivered to the destination partition at virtual time At. Seq is
// assigned per source partition in send order; (At, Src, Seq) is the
// total order in which the destination injects messages, which is what
// keeps the merge deterministic.
type ShardMsg struct {
	At   Time
	Src  int
	Seq  uint64
	Data any
}

// shardMailbox is one (src part → dst part) lane. The sender appends
// under a mutex and never blocks — a bounded channel here can deadlock
// when two partitions flood each other mid-window — and the receiver
// drains by swapping the slice out. Single producer, single consumer:
// the mutex is uncontended except at the handoff instant.
type shardMailbox struct {
	mu  sync.Mutex
	buf []ShardMsg
}

type shardPart struct {
	id  int
	eng *Engine

	// horizon is the partition's published progress: the start of the
	// window it will execute next (equivalently, the end of the last
	// finished one). Peers gate on it.
	horizon atomic.Int64
	// wake is pinged (non-blocking, capacity 1) whenever a peer
	// publishes a new horizon or hands over a message, so gate waits
	// park instead of spinning.
	wake chan struct{}

	// in[src] is the mailbox for messages from partition src.
	in []shardMailbox
	// staged holds drained-but-not-yet-due messages, sorted on demand.
	staged []ShardMsg
	// sendSeq numbers this partition's outgoing messages.
	sendSeq uint64

	deliver func(ShardMsg)

	next Time // start of the next window to execute

	// Deterministic tallies (read after Run, by Stats or through the
	// registry Observe wires, on the coordinating goroutine).
	sent, recv              int64
	windowsRun, windowsIdle int64
	// stalls counts gate waits that actually parked. Wall-clock timing
	// dependent — exported via Stats only, never into a registry.
	stalls int64

	err error
}

// ShardedEngine coordinates Parts engines running on their own
// goroutines. Construct with NewShardedEngine, wire deliver callbacks
// and workload processes onto the per-partition engines, then call Run.
type ShardedEngine struct {
	cfg   ShardedConfig
	parts []*shardPart
	// look[q][p] is how far ahead of partition p's window start
	// partition q must have published for p to proceed: p may run
	// window [s, s+W) once horizon(q) >= s+W-look[q][p]. Uniform W by
	// default; SetLookahead widens individual pairs.
	look [][]Duration

	sem chan struct{} // worker tokens; nil when fully parallel

	// stopAt is the start of the earliest window in which any partition
	// stopped (Engine.Stop/Fail inside an event, or a RunUntil error).
	// Peers refuse to *begin* any later window, so every partition
	// deterministically finishes exactly the stopping window and no
	// more. MaxTime while running.
	stopAt atomic.Int64
	// doneFlag is set once the idle vote (below) succeeds or an external
	// Stop aborts the run.
	doneFlag atomic.Bool
	extStop  atomic.Bool

	// Idle vote: a partition that begins window s with no live events,
	// no staged messages, and empty mailboxes votes for s. The horizon
	// gates guarantee all votes for window s land before any vote for
	// s+1, so n votes for one window mean the whole simulation was
	// simultaneously empty at its start — with inflight (sends not yet
	// drained) zero, nothing can ever wake it again.
	idleMu   sync.Mutex
	voteW    Time
	voteN    int
	inflight atomic.Int64

	wg      sync.WaitGroup
	started bool
	closed  bool
}

// splitSeed derives the per-partition seed stream from the master seed
// using the splitmix64 finalizer, so neighboring seeds yield decorrelated
// streams and partition i's stream never depends on Parts or Workers.
func splitSeed(seed int64, i int) int64 {
	z := uint64(seed) + (uint64(i)+1)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return int64(z ^ (z >> 31))
}

// NewShardedEngine builds the partition engines and mailboxes. Panics on
// a non-positive Parts or Window: both are workload identity, not tuning.
func NewShardedEngine(cfg ShardedConfig) *ShardedEngine {
	if cfg.Parts <= 0 {
		panic("sim: ShardedConfig.Parts must be >= 1")
	}
	if cfg.Window <= 0 {
		panic("sim: ShardedConfig.Window must be > 0 (conservative lookahead)")
	}
	if cfg.Workers <= 0 || cfg.Workers > cfg.Parts {
		cfg.Workers = cfg.Parts
	}
	s := &ShardedEngine{cfg: cfg}
	s.parts = make([]*shardPart, cfg.Parts)
	s.look = make([][]Duration, cfg.Parts)
	for i := range s.parts {
		s.parts[i] = &shardPart{
			id:   i,
			eng:  NewEngine(splitSeed(cfg.Seed, i)),
			wake: make(chan struct{}, 1),
			in:   make([]shardMailbox, cfg.Parts),
		}
		s.look[i] = make([]Duration, cfg.Parts)
		for j := range s.look[i] {
			s.look[i][j] = cfg.Window
		}
	}
	if cfg.Workers < cfg.Parts {
		s.sem = make(chan struct{}, cfg.Workers)
		for i := 0; i < cfg.Workers; i++ {
			s.sem <- struct{}{}
		}
	}
	s.stopAt.Store(int64(MaxTime))
	s.voteW = -1
	return s
}

// Parts returns the number of partitions.
func (s *ShardedEngine) Parts() int { return s.cfg.Parts }

// Workers returns the effective worker-goroutine bound.
func (s *ShardedEngine) Workers() int { return s.cfg.Workers }

// Window returns the conservative lookahead window.
func (s *ShardedEngine) Window() Duration { return s.cfg.Window }

// Engine returns partition p's engine. All pre-Run setup (spawning
// processes, attaching fabrics) goes through it; after Run starts, only
// code executing on that partition's goroutine may touch it.
func (s *ShardedEngine) Engine(p int) *Engine { return s.parts[p].eng }

// OnDeliver installs the destination-side injector for partition p.
// During Run it is called on p's goroutine, engine quiescent, in
// (At, Src, Seq) order; it typically schedules an event via AtArg. Must
// be set before Run for any partition that can receive messages.
func (s *ShardedEngine) OnDeliver(p int, fn func(ShardMsg)) { s.parts[p].deliver = fn }

// SetLookahead declares that messages from partition src to partition
// dst arrive at least d after the send. d below the global window is
// ignored (the window is already the conservative floor); larger d lets
// dst run further ahead of src. Call before Run.
func (s *ShardedEngine) SetLookahead(src, dst int, d Duration) {
	if d > s.look[src][dst] {
		s.look[src][dst] = d
	}
}

// Send hands a message to partition dst, to be injected at virtual time
// at. It must be called from code executing on partition src (inside an
// event or process of src's engine). at must respect the lookahead:
// at >= the end of src's current window.
func (s *ShardedEngine) Send(src, dst int, at Time, data any) {
	p := s.parts[src]
	if at < p.eng.now+s.look[src][dst] {
		panic(fmt.Sprintf("sim: cross-shard send %d->%d at %v violates lookahead (now %v + %v)",
			src, dst, at, p.eng.now, s.look[src][dst]))
	}
	p.sendSeq++
	m := ShardMsg{At: at, Src: src, Seq: p.sendSeq, Data: data}
	p.sent++
	s.inflight.Add(1)
	d := s.parts[dst]
	mb := &d.in[src]
	mb.mu.Lock()
	mb.buf = append(mb.buf, m)
	mb.mu.Unlock()
	ping(d.wake)
}

func ping(ch chan struct{}) {
	select {
	case ch <- struct{}{}:
	default:
	}
}

func (s *ShardedEngine) pingAll(except int) {
	for _, p := range s.parts {
		if p.id != except {
			ping(p.wake)
		}
	}
}

// drain moves every queued inbound message into p.staged. Returns the
// number drained.
func (s *ShardedEngine) drain(p *shardPart) int {
	n := 0
	for src := range p.in {
		mb := &p.in[src]
		mb.mu.Lock()
		buf := mb.buf
		mb.buf = nil
		mb.mu.Unlock()
		if len(buf) > 0 {
			p.staged = append(p.staged, buf...)
			n += len(buf)
		}
	}
	if n > 0 {
		s.inflight.Add(int64(-n))
	}
	return n
}

func (p *shardPart) inboxesEmpty() bool {
	for src := range p.in {
		mb := &p.in[src]
		mb.mu.Lock()
		empty := len(mb.buf) == 0
		mb.mu.Unlock()
		if !empty {
			return false
		}
	}
	return true
}

// noteStop records that partition p stopped while executing the window
// starting at wStart: peers must not begin any window after wStart.
func (s *ShardedEngine) noteStop(wStart Time) {
	for {
		cur := s.stopAt.Load()
		if int64(wStart) >= cur || s.stopAt.CompareAndSwap(cur, int64(wStart)) {
			break
		}
	}
	s.pingAll(-1)
}

// Stop aborts the run from outside the simulation (e.g. a wall-clock
// watchdog). Unlike Engine.Stop from within an event — which is
// deterministic, because peers finish exactly the stopping window — an
// external Stop cuts in at an arbitrary wall-clock moment and the final
// state depends on how far each partition got. Use it only on abort
// paths that discard results.
func (s *ShardedEngine) Stop() {
	s.extStop.Store(true)
	s.doneFlag.Store(true)
	s.pingAll(-1)
}

func (s *ShardedEngine) acquire() {
	if s.sem != nil {
		<-s.sem
	}
}

func (s *ShardedEngine) release() {
	if s.sem != nil {
		s.sem <- struct{}{}
	}
}

// voteIdle records that partition p found nothing to do at the window
// starting at w. Reports whether the whole simulation is now known idle.
func (s *ShardedEngine) voteIdle(w Time) bool {
	s.idleMu.Lock()
	defer s.idleMu.Unlock()
	if w > s.voteW {
		s.voteW, s.voteN = w, 0
	}
	if w == s.voteW {
		s.voteN++
		if s.voteN == len(s.parts) && s.inflight.Load() == 0 {
			return true
		}
	}
	return false
}

// Run drives every partition until the whole simulation drains, any
// partition stops or fails, or the clock passes limit. It may be called
// once. On return all partition goroutines have exited; the per-
// partition engines still hold their parked processes until Close.
func (s *ShardedEngine) Run(limit Time) error {
	if s.started {
		return errors.New("sim: ShardedEngine.Run called twice")
	}
	if s.closed {
		return errors.New("sim: ShardedEngine already closed")
	}
	s.started = true
	s.wg.Add(len(s.parts))
	for _, p := range s.parts {
		go s.runPart(p, limit)
	}
	s.wg.Wait()
	// Failure beats stop beats success, and lower partition ids beat
	// higher, so the reported error is deterministic.
	var stopped bool
	for _, p := range s.parts {
		if p.err == nil {
			continue
		}
		if errors.Is(p.err, ErrStopped) {
			stopped = true
			continue
		}
		return p.err
	}
	if stopped || s.extStop.Load() {
		return ErrStopped
	}
	return nil
}

// runPart is one partition's driver loop. Each iteration handles the
// window [p.next, p.next+W): wait for peer horizons, drain and inject
// due messages, run the engine to the window end (skipping the run
// entirely when the window is empty — this also keeps the engine clock
// from advancing through idle windows, which would leak the run's
// wall-clock-dependent shutdown point into sim.time.now.ns), then
// publish the new horizon.
func (s *ShardedEngine) runPart(p *shardPart, limit Time) {
	defer func() {
		// Release peers blocked on our horizon whatever the exit path.
		p.horizon.Store(int64(MaxTime))
		s.pingAll(p.id)
		s.wg.Done()
	}()
	W := s.cfg.Window
	for {
		wStart := p.next
		if wStart > limit || s.doneFlag.Load() || Time(s.stopAt.Load()) < wStart {
			return
		}
		wEnd := wStart + W
		if wEnd < wStart || wEnd > limit {
			// Overflow or final partial window: clamp to the limit.
			wEnd = limit
			if wEnd == MaxTime {
				wEnd = MaxTime - 1
			}
			wEnd++
		}
		// Gate: peer q must have published through wEnd - look[q][p]
		// before we may execute [wStart, wEnd).
		for q, qp := range s.parts {
			if q == p.id {
				continue
			}
			need := wEnd - s.look[q][p.id]
			if need <= 0 {
				continue
			}
			first := true
			for Time(qp.horizon.Load()) < need {
				if s.doneFlag.Load() || Time(s.stopAt.Load()) < wStart {
					return
				}
				if first {
					p.stalls++
					first = false
				}
				<-p.wake
			}
		}
		if s.doneFlag.Load() || Time(s.stopAt.Load()) < wStart {
			return
		}
		// Inject messages due this window, in (At, Src, Seq) order.
		s.drain(p)
		injected := false
		if len(p.staged) > 0 {
			sort.Slice(p.staged, func(i, j int) bool {
				a, b := p.staged[i], p.staged[j]
				if a.At != b.At {
					return a.At < b.At
				}
				if a.Src != b.Src {
					return a.Src < b.Src
				}
				return a.Seq < b.Seq
			})
			k := 0
			for k < len(p.staged) && p.staged[k].At < wEnd {
				k++
			}
			if k > 0 {
				for i := 0; i < k; i++ {
					m := p.staged[i]
					p.recv++
					if p.deliver == nil {
						p.err = fmt.Errorf("sim: partition %d received a cross-shard message with no OnDeliver handler", p.id)
						s.noteStop(wStart)
						return
					}
					p.deliver(m)
				}
				p.staged = append(p.staged[:0], p.staged[k:]...)
				injected = true
			}
		}
		switch {
		case p.eng.NextLive() < wEnd:
			s.acquire()
			err := p.eng.RunUntil(wEnd - 1)
			s.release()
			p.windowsRun++
			if err != nil {
				p.err = err
				s.noteStop(wStart)
				return
			}
		case !injected && len(p.staged) == 0 && p.inboxesEmpty() &&
			p.eng.NextLive() == MaxTime:
			// Nothing live anywhere in this partition — not now, not in
			// any future window. Vote; if every partition is idle at this
			// same window with no message in flight, the simulation is
			// over. A finite NextLive beyond this window falls through to
			// the default branch instead: future work is still work. The
			// idle tally is bumped before the vote so the (wall-clock-
			// arbitrary) partition that happens to cast the winning vote
			// counts this window exactly like its peers do.
			p.windowsIdle++
			if s.voteIdle(wStart) {
				s.doneFlag.Store(true)
				s.pingAll(p.id)
				return
			}
		default:
			// Future work only (staged messages or events beyond this
			// window): the window itself is empty, skip the engine run.
			p.windowsIdle++
		}
		p.next = wEnd
		p.horizon.Store(int64(wEnd))
		s.pingAll(p.id)
	}
}

// Close tears down every partition engine (ascending partition id, so
// teardown order is deterministic). Idempotent.
func (s *ShardedEngine) Close() {
	if s.closed {
		return
	}
	s.closed = true
	for _, p := range s.parts {
		p.eng.Close()
	}
}

// ShardPartStats is one partition's deterministic tally block.
type ShardPartStats struct {
	Events      uint64 // events scheduled on the partition's engine
	Sent        int64  // cross-shard messages sent
	Recv        int64  // cross-shard messages injected
	WindowsRun  int64  // windows that executed events
	WindowsIdle int64  // windows skipped as empty
	Now         Time   // partition clock at exit
}

// ShardedStats is a post-Run snapshot. Everything except Stalls is a
// pure function of seed and workload; Stalls counts gate waits that
// parked, which depends on wall-clock interleaving and must never be
// written into a metrics registry (registries are golden-gated).
type ShardedStats struct {
	Parts, Workers int
	Window         Duration
	Sent, Recv     int64
	WindowsRun     int64
	WindowsIdle    int64
	Stalls         int64
	PerPart        []ShardPartStats
}

// Stats returns the run's tallies. Call after Run has returned.
func (s *ShardedEngine) Stats() ShardedStats {
	st := ShardedStats{Parts: s.cfg.Parts, Workers: s.cfg.Workers, Window: s.cfg.Window}
	for _, p := range s.parts {
		pp := ShardPartStats{
			Events:      p.eng.seq,
			Sent:        p.sent,
			Recv:        p.recv,
			WindowsRun:  p.windowsRun,
			WindowsIdle: p.windowsIdle,
			Now:         p.eng.now,
		}
		st.Sent += p.sent
		st.Recv += p.recv
		st.WindowsRun += p.windowsRun
		st.WindowsIdle += p.windowsIdle
		st.Stalls += p.stalls
		st.PerPart = append(st.PerPart, pp)
	}
	return st
}
