package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strings"
	"sync"
	"time"
)

// spanID names a recorded span; 0 is "none" (the root's parent, and
// every id a nil tracer hands out).
type spanID int64

// span is one interval around a call the benchmark made into a layer.
// Host-only spans (set-up, the rep) have VirtStart < 0. An op span
// brackets a blocking simulated call: other simulated processes run on
// the host inside it, so only its virtual interval is meaningful.
type span struct {
	Name      string
	ID        spanID
	Parent    spanID
	Op        int64 // op index within the rep (-1 for phase spans)
	Lane      int   // stream, rank or proc the op ran on
	VirtStart int64 // ns
	VirtEnd   int64
	HostStart int64 // ns since the tracer started
	HostEnd   int64
}

// tracer keeps the traced rep's spans in memory; they are written out
// once the rep is over. A nil *tracer records nothing, so timed reps
// pay one pointer test per call site. Federated workloads record from
// two partition workers at once, hence the lock.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) host() int64 { return int64(time.Since(t.t0)) }

// begin opens a host-only phase span.
func (t *tracer) begin(name string, parent spanID) spanID {
	return t.op(name, parent, -1, 0, -1)
}

// op opens a span around one simulated call starting at virtual time
// vStart.
func (t *tracer) op(name string, parent spanID, op int64, lane int, vStart int64) spanID {
	if t == nil {
		return 0
	}
	h := t.host()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := spanID(len(t.spans) + 1)
	t.spans = append(t.spans, span{Name: name, ID: id, Parent: parent, Op: op, Lane: lane,
		VirtStart: vStart, VirtEnd: vStart, HostStart: h, HostEnd: h})
	return id
}

// end closes a span; vEnd is ignored for host-only spans.
func (t *tracer) end(id spanID, vEnd int64) {
	if t == nil || id == 0 {
		return
	}
	h := t.host()
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.HostEnd = h
	if s.VirtStart >= 0 {
		s.VirtEnd = vEnd
	}
}

// chromeEvent is one Chrome trace-event record (the JSON Perfetto and
// chrome://tracing load).
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// writeChrome writes the spans as Chrome trace-event JSON: process 1 is
// the host timeline (phase spans), process 2 the virtual timeline (op
// spans, one thread per stream, rank or proc). Times are µs.
func (t *tracer) writeChrome(path string) error {
	evs := []chromeEvent{
		{Name: "process_name", Ph: "M", Pid: 1, Args: map[string]any{"name": "host time"}},
		{Name: "process_name", Ph: "M", Pid: 2, Args: map[string]any{"name": "virtual time"}},
	}
	for _, s := range t.spans {
		args := map[string]any{"id": s.ID, "parent": s.Parent}
		ev := chromeEvent{Name: s.Name, Ph: "X", Pid: 1, Tid: s.Lane,
			Ts: float64(s.HostStart) / 1e3, Dur: float64(s.HostEnd-s.HostStart) / 1e3}
		if s.VirtStart >= 0 {
			args["op"] = s.Op
			args["host_start_us"], args["host_end_us"] = ev.Ts, ev.Ts+ev.Dur
			ev.Pid, ev.Ts, ev.Dur = 2, float64(s.VirtStart)/1e3, float64(s.VirtEnd-s.VirtStart)/1e3
		}
		ev.Args = args
		evs = append(evs, ev)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	if err := enc.Encode(map[string]any{"displayTimeUnit": "ms", "traceEvents": evs}); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}

// ---- host time per layer, from a CPU profile ----

const nowInternal = "github.com/nowproject/now/internal/"

// layerOfPkg maps the simulator's packages to the layers the host
// shares are reported for. Packages not listed (lru, stats, trace, the
// standard library) are helpers: their samples go to the nearest
// listed caller.
var layerOfPkg = map[string]string{
	nowInternal + "sim":              "sim",
	nowInternal + "netsim":           "netsim",
	nowInternal + "proto/am":         "am",
	nowInternal + "proto/collective": "collective",
	nowInternal + "xfs":              "xfs",
	nowInternal + "swraid":           "swraid",
	nowInternal + "node":             "node",
	nowInternal + "glunix":           "glunix",
	nowInternal + "faults":           "faults",
	nowInternal + "scenario":         "scenario",
	nowInternal + "obs":              "obs",
	nowInternal + "federation":       "federation",
	"main":                           "bench",
}

// Runtime work that belongs to no caller: garbage collection, goroutine
// stack growth and goroutine scheduling. Matched by function-name
// prefix (after "runtime.") on the runtime frames at the leaf end of a
// sample's stack; other runtime leaves (malloc, maps, memmove) count
// toward the layer that called them.
var runtimeBuckets = []struct {
	bucket   string
	prefixes []string
}{
	{"runtime.gc", []string{"gcBgMarkWorker", "gcAssistAlloc", "gcDrain", "gcStart", "gcMarkDone",
		"gcMarkTermination", "bgsweep", "bgscavenge", "sweepone", "deductSweepCredit", "(*mheap).reclaim",
		"wbBufFlush", "markroot", "scanobject", "scanstack", "scanblock", "greyobject", "(*gcWork)",
		"(*sweepLocked).sweep", "(*mspan).sweep"}},
	{"runtime.stack", []string{"newstack", "copystack", "morestack", "shrinkstack", "stackalloc",
		"stackfree", "stackcache"}},
	{"runtime.sched", []string{"schedule", "findRunnable", "park_m", "gopark", "goready", "ready",
		"newproc", "goexit0", "goexit1", "gfget", "gfput", "mcall", "chansend", "chanrecv", "selectgo",
		"stopm", "startm", "wakep", "handoffp", "execute", "runqget", "runqput", "runqgrab", "runqsteal",
		"gosched", "casgstatus", "futex", "notesleep", "notewakeup", "mPark", "semasleep", "semawakeup",
		"usleep", "osyield", "lock2", "unlock2", "entersyscall", "exitsyscall", "netpoll", "resetspinning"}},
}

// pkgOf returns the package path of a profiled function name such as
// "github.com/x/y/internal/proto/am.(*Endpoint).Call.func1" or
// "lru.(*Cache[...]).Get" (type arguments can hold dots and slashes).
func pkgOf(fn string) string {
	fn = strings.TrimSuffix(fn, " (inline)")
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i]
	}
	slash := strings.LastIndexByte(fn, '/') + 1
	if dot := strings.IndexByte(fn[slash:], '.'); dot >= 0 {
		return fn[:slash+dot]
	}
	return fn
}

func isRuntime(pkg string) bool {
	return pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/")
}

// classify attributes one sample's stack (leaf first) to a bucket.
func classify(frames []string) string {
	i := 0
	for ; i < len(frames) && isRuntime(pkgOf(frames[i])); i++ {
		name := strings.TrimPrefix(strings.TrimSuffix(frames[i], " (inline)"), "runtime.")
		for _, b := range runtimeBuckets {
			for _, p := range b.prefixes {
				if strings.HasPrefix(name, p) {
					return b.bucket
				}
			}
		}
	}
	for _, f := range frames[i:] {
		if l, ok := layerOfPkg[pkgOf(f)]; ok {
			return l
		}
	}
	return "other"
}

// profileShares runs the toolchain's `go tool pprof -traces` over a CPU
// profile and returns each bucket's share of the sampled CPU time plus
// the sample count (runtime/pprof samples at 100 Hz).
func profileShares(profile string) (map[string]float64, int64, error) {
	goBin, err := exec.LookPath("go")
	if err != nil {
		return nil, 0, fmt.Errorf("host shares need the go toolchain on PATH: %w", err)
	}
	out, err := exec.Command(goBin, "tool", "pprof", "-traces", profile).Output()
	if err != nil {
		return nil, 0, fmt.Errorf("go tool pprof -traces %s: %w", profile, err)
	}
	return parseTraces(string(out))
}

// parseTraces reads `pprof -traces` text: blocks separated by
// "-----------+---…" lines, each opening with the sample's CPU time and
// leaf function, then one caller per line.
func parseTraces(text string) (map[string]float64, int64, error) {
	byBucket := map[string]time.Duration{}
	var total time.Duration
	var frames []string
	var val time.Duration
	inBlock, needVal := false, false
	flush := func() {
		if len(frames) > 0 {
			byBucket[classify(frames)] += val
			total += val
		}
		frames, val = frames[:0], 0
	}
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, "-----------+") {
			flush()
			inBlock, needVal = true, true
			continue
		}
		trimmed := strings.TrimSpace(line)
		if !inBlock || trimmed == "" {
			continue
		}
		if needVal {
			v, fn, ok := strings.Cut(trimmed, " ")
			d, err := time.ParseDuration(v)
			if !ok || err != nil {
				return nil, 0, fmt.Errorf("pprof traces: bad sample line %q", line)
			}
			val, needVal = d, false
			trimmed = strings.TrimSpace(fn)
		}
		frames = append(frames, trimmed)
	}
	flush()
	if total == 0 {
		return nil, 0, fmt.Errorf("pprof traces: no samples")
	}
	shares := make(map[string]float64, len(byBucket))
	for b, d := range byBucket {
		shares[b] = float64(d) / float64(total)
	}
	return shares, int64(total / (10 * time.Millisecond)), nil
}
