package exec

import (
	"fmt"
	"testing"

	"charonsim/internal/cpu"
	"charonsim/internal/dram"
	"charonsim/internal/hmc"
	"charonsim/internal/sim"
)

func TestDiagHostHMCvsDDR4(t *testing.T) {
	mkOps := func(n int, stride uint64, dep bool) []cpu.Op {
		var ops []cpu.Op
		for i := 0; i < n; i++ {
			d := cpu.NoDep
			if dep && i > 0 {
				d = int32(i - 1)
			}
			ops = append(ops, cpu.Op{Kind: cpu.OpRead, Addr: uint64(i) * stride, Size: 8, Dep: d})
		}
		return ops
	}
	run := func(name string, mk func() cpu.MemBackend, ops []cpu.Op, ncores int) sim.Time {
		mem := mk()
		h := cpu.NewHost(ncores, cpu.DefaultConfig(), mem)
		var last sim.Time
		for c := 0; c < ncores; c++ {
			shift := make([]cpu.Op, len(ops))
			copy(shift, ops)
			for i := range shift {
				shift[i].Addr += uint64(c) * (1 << 26)
			}
			if f := h.Cores[c].ExecOps(0, shift); f > last {
				last = f
			}
		}
		fmt.Printf("%-18s cores=%d  time=%8.1f us\n", name, ncores, last.Seconds()*1e6)
		return last
	}
	ddr := func() cpu.MemBackend { return dram.NewDDR4() }
	hmcB := func() cpu.MemBackend { return hostHMCBackend{hmc.NewSystem(22)} }

	seq := mkOps(20000, 64, false)
	rnd := mkOps(5000, 4096+64, false)
	chase := mkOps(2000, 4096+64, true)
	for _, ncores := range []int{1, 8} {
		run("DDR4 seq", ddr, seq, ncores)
		run("HMC  seq", hmcB, seq, ncores)
		run("DDR4 rnd", ddr, rnd, ncores)
		run("HMC  rnd", hmcB, rnd, ncores)
		run("DDR4 chase", ddr, chase, ncores)
		run("HMC  chase", hmcB, chase, ncores)
	}
}
