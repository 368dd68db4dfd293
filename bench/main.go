// Command bench is the repository's benchmark: a closed loop of two
// client goroutines driving the public store API over a fixed, seeded
// operation sequence on four workloads, with the end-to-end metrics
// measured untraced and a per-layer budget taken from a separate traced
// run. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"maps"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		name       = flag.String("workload", "", "run only this workload (default: all four)")
		seed       = flag.Int64("seed", 1, "workload seed: the same seed gives the same operations")
		seconds    = flag.Int("seconds", defaultSeconds, "nominal length of the measured phase; the op count is the workload's ops/s times this")
		trace      = flag.Int("trace", -1, "0: the untraced run (end-to-end metrics), 1: the traced run (per-layer metrics), default both")
		quick      = flag.Bool("quick", false, "run a twentieth of every op count (smoke test, times mean nothing)")
		selfcheck  = flag.Bool("selfcheck", false, "run the untraced benchmark as two sets of -runs runs and compare the sets' medians against the bounds")
		runs       = flag.Int("runs", 3, "runs per set under -selfcheck")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile of the whole invocation to this file")
		memprofile = flag.String("memprofile", "", "write an allocation profile to this file on exit")
	)
	flag.Parse()
	if flag.NArg() > 0 || *seconds < 1 || *trace < -1 || *trace > 1 || *runs < 2 {
		fmt.Fprintln(os.Stderr, "usage: bench [-workload name] [-seed n] [-seconds s] [-trace 0|1] [-quick] [-selfcheck [-runs n>=2]] [-cpuprofile f] [-memprofile f]")
		return 2
	}
	selected := workloads
	if *name != "" {
		w, ok := workloadByName(*name)
		if !ok {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
			return 2
		}
		selected = []workload{w}
	}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err == nil {
				err = pprof.Lookup("allocs").WriteTo(f, 0)
				if cerr := f.Close(); err == nil {
					err = cerr
				}
			}
			if err != nil {
				fmt.Fprintln(os.Stderr, "bench: memprofile:", err)
			}
		}()
	}

	c := runConfig{seed: *seed, seconds: *seconds, quick: *quick}
	fmt.Printf("# %s GOMAXPROCS=%d nproc=%d clients=%d seed=%d seconds=%d quick=%v\n",
		runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU(), clients, c.seed, c.seconds, c.quick)
	if *selfcheck {
		if err := selfCheck(selected, c, *runs); err != nil {
			fmt.Fprintln(os.Stderr, "bench: selfcheck:", err)
			return 1
		}
		return 0
	}
	status := 0
	for _, w := range selected {
		for _, traced := range []bool{false, true} {
			if *trace >= 0 && traced != (*trace == 1) {
				continue
			}
			runOne, defs := runEndToEnd, endToEndMetrics
			if traced {
				runOne, defs = runTraced, perLayerMetrics
			}
			res, err := runOne(w, c)
			if err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				return 1
			}
			res.print(defs, traced)
			if res.violated > 0 {
				status = 1
			}
		}
	}
	return status
}

// print writes the run's table and, as the last line, the result object
// of the driver's contract: exactly the metrics of defs.
func (r *result) print(defs []metric, traced bool) {
	mode := "untraced"
	if traced {
		mode = "traced"
	}
	fmt.Printf("## %s (%s): attempted=%d failed=%d violations=%d", r.workload, mode, r.attempted, r.failed, r.violated)
	for _, k := range slices.Sorted(maps.Keys(r.samples)) {
		fmt.Printf(" %s=%d", k, r.samples[k])
	}
	fmt.Println()
	if r.firstErr != nil {
		fmt.Printf("first failure: %v\n", r.firstErr)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: r.violated == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]value{}}
	listed := map[string]bool{}
	for _, d := range defs {
		v := r.metrics[d.name]
		fmt.Printf("%-28s %14.4f %s\n", d.name, v, d.unit)
		out.Metrics[d.name] = value{v, d.unit}
		listed[d.name] = true
	}
	for _, k := range slices.Sorted(maps.Keys(r.metrics)) {
		if !listed[k] {
			fmt.Printf("(%-26s %14.4f)\n", k, r.metrics[k])
		}
	}
	line, err := json.Marshal(out)
	if err != nil {
		panic(err) // a struct of numbers and strings always marshals
	}
	fmt.Println(string(line))
}
