package bench

import (
	"fmt"
	"testing"

	"routesync/internal/netsim"
)

// Wrappers exposing the shared benchmark bodies to `go test -bench`.
// `figures -bench` runs the same bodies via testing.Benchmark.

func BenchmarkDESScheduleStep(b *testing.B)         { DESScheduleStep(b) }
func BenchmarkDESScheduleStepObserved(b *testing.B) { DESScheduleStepObserved(b) }
func BenchmarkDESScheduleCancel(b *testing.B)       { DESScheduleCancel(b) }
func BenchmarkDESTicker(b *testing.B)               { DESTicker(b) }

func BenchmarkDESScheduleFire(b *testing.B) {
	for _, depth := range []int{1000, 100000} {
		b.Run(fmt.Sprintf("backend=heap/depth=%d", depth), func(b *testing.B) {
			DESScheduleFire(b, depth)
		})
	}
}
func BenchmarkTickerStorm(b *testing.B) { TickerStorm(b) }

func BenchmarkPeriodicStep(b *testing.B) {
	for _, n := range []int{20, 100, 1000} {
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) { PeriodicStep(b, n) })
	}
}

func BenchmarkPeriodicStepObserved(b *testing.B) {
	for _, n := range []int{20, 100, 1000} {
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) { PeriodicStepObserved(b, n) })
	}
}

func BenchmarkPeriodicStepLargeN(b *testing.B) {
	for _, n := range []int{10000, 100000} {
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) { PeriodicStepLargeN(b, n) })
	}
}

func BenchmarkClusterGrow(b *testing.B) {
	for _, n := range []int{20, 1000} {
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) { ClusterGrow(b, n) })
	}
}

func BenchmarkClusterGrowSorted(b *testing.B) {
	for _, n := range []int{20, 1000} {
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) { ClusterGrowSorted(b, n) })
	}
}

func BenchmarkClusterPartition(b *testing.B) {
	for _, n := range []int{20, 1000} {
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) { ClusterPartition(b, n) })
	}
}

func BenchmarkNetsimForward(b *testing.B) { NetsimForward(b) }

func BenchmarkNetsimScale(b *testing.B) {
	for _, k := range []int{1, 2, 8} {
		b.Run(fmt.Sprintf("N=500/K=%d", k), func(b *testing.B) { NetsimScale(b, 500, k) })
	}
}

func BenchmarkNetsimChurn(b *testing.B) {
	for _, k := range []int{1, 2, 6} {
		b.Run(fmt.Sprintf("K=%d", k), func(b *testing.B) { NetsimChurn(b, k) })
	}
}

func BenchmarkPathVectorUpdate(b *testing.B) { PathVectorUpdate(b) }

func BenchmarkNetsimBGP(b *testing.B) {
	for _, k := range []int{1, 2, 8} {
		b.Run(fmt.Sprintf("N=1000/K=%d", k), func(b *testing.B) { NetsimBGP(b, 1000, k) })
	}
}

func BenchmarkNetsimLowLookahead(b *testing.B) {
	for _, mode := range []netsim.SyncMode{netsim.SyncConservative, netsim.SyncOptimistic} {
		for _, k := range []int{1, 4} {
			b.Run(fmt.Sprintf("mode=%s/K=%d", mode, k), func(b *testing.B) { NetsimLowLookahead(b, mode, k) })
		}
	}
}

func BenchmarkNetsimExchange(b *testing.B) {
	for _, k := range []int{2, 4} {
		b.Run(fmt.Sprintf("K=%d", k), func(b *testing.B) { NetsimExchange(b, k) })
	}
}
