package runner

import (
	"errors"
	"os"
	"runtime"
	"runtime/pprof"
)

// Profile starts a CPU profile written to cpuPath and returns a stop
// function that ends it and then writes an allocation profile to
// memPath, as `go test -cpuprofile -memprofile` would; read either with
// `go tool pprof`. An empty path skips that profile, so with both empty
// Profile does nothing. Call stop once, after the work to be profiled.
func Profile(cpuPath, memPath string) (stop func() error, err error) {
	var cpu *os.File
	if cpuPath != "" {
		if cpu, err = os.Create(cpuPath); err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(cpu); err != nil {
			cpu.Close()
			return nil, err
		}
	}
	return func() error {
		var errs []error
		if cpu != nil {
			pprof.StopCPUProfile()
			errs = append(errs, cpu.Close())
		}
		if memPath != "" {
			errs = append(errs, writeAllocProfile(memPath))
		}
		return errors.Join(errs...)
	}, nil
}

// writeAllocProfile writes every allocation sampled since the program
// started, after a GC so the in-use figures are current.
func writeAllocProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC()
	if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
