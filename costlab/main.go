// Command costlab is the repository's benchmark. It prices Base, Remote
// and Linked on one named traffic mix with the program's own meter,
// checks every reply, and prints the metrics BENCHMARK.json defines; the
// last line of its output is the JSON result.
//
//	bash costlab/run.sh --workload kv-hot --seed 1 --seconds 15 --trace 0
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it
// also runs a traced deployment, timed at the rpc.Conn seam from outside
// the program, and reports the per-layer metrics. It exits non-zero when
// any operation fails or any output check does not hold.
//
// The load is a closed loop with one caller, an app-tier thread that
// waits for each reply. An open loop was measured and rejected on a
// 2-vCPU VM: time.Sleep overshoots by 0.9-1.0 ms at the median, so with
// the program's open-loop runner at 3000 ops/s Remote's intended-clock
// p50 read 0.72-0.77 ms against a 0.06 ms closed-loop service p50, and a
// spin-wait variant's p99 ranged 7-52 ms across runs. Closed-loop
// throughput stands in for the highest rate meeting a latency limit.
//
// One caller per CPU was measured and rejected too: two callers on the
// storage node's statement mutex settle either into a convoy or into
// interleaving, run by run. kv-hot's Base median read 150-164 us in two
// runs of ten and 320-356 us in the others (6.6k against 5.5k ops/s),
// and kv-churn's moved from 175 to 324 us between runs of the same code,
// so no bound could gate them.
//
// The benchmark drives the program itself: it pre-draws each workload's
// op stream from --seed, calls the service's front door directly and
// never uses the program's experiment runner. Writes carry version-stamped
// payloads, so every read's digest names the value it returned; reads
// that return an older value after a completed write are counted as
// stale (reported, not gated).
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("costlab", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: kv-hot, kv-churn or rich-object")
	seed := fs.Int64("seed", 1, "seed every input is drawn from")
	seconds := fs.Float64("seconds", 15, "total measured time, split over the architectures' windows")
	traceMode := fs.Int("trace", 0, "0: end-to-end metrics; 1: also run the traced deployment and report per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	sp := specByName(*name)
	if sp == nil || fs.NArg() > 0 || *seconds <= 0 || (*traceMode != 0 && *traceMode != 1) {
		fmt.Fprintf(stderr, "costlab: need --workload (one of %s), --seconds > 0 and --trace 0|1\n", workloadNames())
		return 2
	}
	fmt.Fprintf(stdout, "meta: workload=%s seed=%d seconds=%g trace=%d lanes=1 nproc=%d GOMAXPROCS=%d go=%s cpu=%q\n",
		sp.name, *seed, *seconds, *traceMode, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), cpuModel())
	res, err := runWorkload(sp, *seed, *seconds, *traceMode == 1, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "costlab:", err)
		return 1
	}
	defs := endToEndDefs()
	if *traceMode == 1 {
		defs = perLayerDefs()
	}
	if err := writeReport(stdout, res, defs); err != nil {
		fmt.Fprintln(stderr, "costlab:", err)
		return 1
	}
	if res.failed > 0 {
		return 1
	}
	return 0
}

func workloadNames() string {
	var names []string
	for _, s := range specs {
		names = append(names, s.name)
	}
	return strings.Join(names, ", ")
}

// cpuModel reads the processor model for the run's metadata.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}
