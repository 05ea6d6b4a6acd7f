package controlplane_test

import (
	"io"
	"testing"

	"github.com/nowproject/now/internal/sim"
)

// BenchmarkSnapshotStream measures the observation overhead an operator
// poll imposes on a live stack: one `nowctl status` + metrics export +
// incremental span fetch cycle against a cluster that has been running
// long enough to populate its registry. This is the cost the serve
// loop's Do() closure pays on the drive goroutine per poll — it bounds
// how hard a dashboard can poll before it starts stealing simulation
// throughput.
func BenchmarkSnapshotStream(b *testing.B) {
	st := newStack(b, 16, 8, true, false)
	defer st.Engine.Close()
	if err := st.Engine.RunUntil(sim.Time(10 * sim.Minute)); err != nil {
		b.Fatalf("RunUntil: %v", err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = st.CP.Status()
		_ = st.CP.SpansSince(0)
		if err := st.Registry.WriteMetricsJSON(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}
