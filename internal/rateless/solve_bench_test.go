package rateless_test

import (
	"testing"

	"repro/internal/raptor"
)

// The two structure-dependent costs of the pre-inverted mapping at the
// e2e benchmark's block size (10 MiB of 1 KiB packets): choosing the
// virtual rows, once per codec instance on each side, and the sender's
// solve for the intermediates, once per session.
const benchK, benchPL = 10240, 1024

func BenchmarkVirtualRows(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		c, err := raptor.New(benchK, benchPL, int64(i), 0, 0, 0, 0)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		c.VirtualRows()
	}
}

func BenchmarkSolveIntermediates(b *testing.B) {
	c, err := raptor.New(benchK, benchPL, 1, 0, 0, 0, 0)
	if err != nil {
		b.Fatal(err)
	}
	src := goldenSrc(benchK, benchPL)
	c.VirtualRows()
	b.SetBytes(int64(benchK * benchPL))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.SolveIntermediates(src)
	}
}
