package cli

import (
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
)

// startProfiles starts a CPU profile into cpuPath and opens memPath for a
// heap profile (an empty path turns that profile off). Both files are
// created up front, so a bad path fails before any simulation runs. The
// returned stop ends the CPU profile and writes the heap profile; it
// reports its own failures to stderr and never changes the exit code,
// since a profile is an aid, not a deliverable.
func startProfiles(stderr io.Writer, cpuPath, memPath string) (stop func(), err error) {
	var cpu, mem *os.File
	if memPath != "" {
		if mem, err = os.Create(memPath); err != nil {
			return nil, fmt.Errorf("-memprofile: %w", err)
		}
	}
	if cpuPath != "" {
		if cpu, err = os.Create(cpuPath); err == nil {
			if err = pprof.StartCPUProfile(cpu); err != nil {
				cpu.Close()
			}
		}
		if err != nil {
			if mem != nil {
				mem.Close()
			}
			return nil, fmt.Errorf("-cpuprofile: %w", err)
		}
	}
	return func() {
		if cpu != nil {
			pprof.StopCPUProfile()
			if err := cpu.Close(); err != nil {
				fmt.Fprintf(stderr, "-cpuprofile: %v\n", err)
			}
		}
		if mem != nil {
			runtime.GC() // the heap profile is as of the last completed GC
			err := pprof.WriteHeapProfile(mem)
			if cerr := mem.Close(); err == nil {
				err = cerr
			}
			if err != nil {
				fmt.Fprintf(stderr, "-memprofile: %v\n", err)
			}
		}
	}, nil
}
