package ref_test

import (
	"fmt"
	"testing"

	"wavescalar/internal/ref"
	"wavescalar/internal/workload"
)

// interpCells are the runs BenchmarkInterp and TestInterpAllocs time: a
// tiled kernel over sixteen threads, a splash2 kernel over four and a
// memory-bound spec kernel at small scale.
var interpCells = []struct {
	app     string
	scale   workload.Scale
	name    string
	threads int
}{
	{"gemm-as-4x4x4", workload.Tiny, "tiny", 16},
	{"fft", workload.Tiny, "tiny", 4},
	{"radix", workload.Small, "small", 1},
}

// interpInput builds one of interpCells.
func interpInput(tb testing.TB, app string, sc workload.Scale, threads int) (*workload.Instance, []map[string]uint64) {
	tb.Helper()
	w, err := workload.ByName(app)
	if err != nil {
		tb.Fatal(err)
	}
	inst := w.Build(sc)
	return inst, inst.Params(threads)
}

var sinkThreads *ref.ThreadsResult

// BenchmarkInterp runs each of interpCells through ref.RunThreads and
// reports the interpreter's time per dynamic instruction.
func BenchmarkInterp(b *testing.B) {
	for _, c := range interpCells {
		b.Run(fmt.Sprintf("%s/%s/t%d", c.app, c.name, c.threads), func(b *testing.B) {
			inst, params := interpInput(b, c.app, c.scale, c.threads)
			b.ReportAllocs()
			b.ResetTimer()
			var dynamic uint64
			for i := 0; i < b.N; i++ {
				res, err := ref.RunThreads(inst.Prog, inst.Mem, params)
				if err != nil {
					b.Fatal(err)
				}
				dynamic += res.Dynamic
				sinkThreads = res
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(dynamic), "ns/inst")
		})
	}
}

// maxMallocsPerKinst bounds the interpreter's allocations per thousand
// dynamic instructions on each of interpCells, memory copy included. It
// measured 4.4, 4.7 and 6.9, most of it the memory copy, the result and
// the growth of the slabs and the work stack; a list per wave for the
// memory operations that wait for their wave's order read 34, 33 and 45,
// and a heap object per partial match would add hundreds.
const maxMallocsPerKinst = 8

func TestInterpAllocs(t *testing.T) {
	for _, c := range interpCells {
		inst, params := interpInput(t, c.app, c.scale, c.threads)
		var dynamic uint64
		allocs := testing.AllocsPerRun(2, func() {
			res, err := ref.RunThreads(inst.Prog, inst.Mem, params)
			if err != nil {
				t.Fatal(err)
			}
			dynamic = res.Dynamic
		})
		if perK := allocs * 1000 / float64(dynamic); perK > maxMallocsPerKinst {
			t.Errorf("%s/%s/t%d: %.1f mallocs per 1000 dynamic instructions, bound %d",
				c.app, c.name, c.threads, perK, maxMallocsPerKinst)
		}
	}
}
