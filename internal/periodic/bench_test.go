package periodic

import (
	"fmt"
	"testing"

	"routesync/internal/jitter"
)

// BenchmarkStep compares the heap engine against the sort-based reference
// at several populations. The speedup grows with N: the heap pays
// O(k log N) per firing for cluster size k while the reference re-sorts
// all N expiries. The configuration pins the desynchronized steady state
// (Tp scaled with N, Tr far above the synchronization threshold) so k
// measures the engine, not the physics — see bench.PeriodicBenchConfig.
func BenchmarkStep(b *testing.B) {
	for _, n := range []int{20, 100, 1000} {
		tp := 6.05 * float64(n)
		cfg := Config{
			N:      n,
			Tc:     0.11,
			Jitter: jitter.Uniform{Tp: tp, Tr: tp / 20},
			Seed:   1,
		}
		for _, g := range []func(Config) named{heapEngine, refEngine} {
			s := g(cfg)
			b.Run(fmt.Sprintf("N=%d/%s", n, s.name), func(b *testing.B) {
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					s.e.Step()
				}
			})
		}
	}
}
