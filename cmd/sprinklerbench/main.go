// Command sprinklerbench is the simulator's end-to-end benchmark. It runs
// four workloads — pristine-read, aged-write, sweep and daemon — and
// reports, per workload, end-to-end metrics from an untraced pass and
// per-layer metrics from a traced one. README.md describes the workloads,
// the metrics and which layer should move which end-to-end number.
//
//	go run . -seed 1            # all four workloads, one child process each
//	go run . -seed 1 -trace 1   # ... plus a traced pass per workload
//	go run . -workload daemon -seed 2 -seconds 20 -trace 0
//
// With -workload the run stays in this process and its last line of
// standard output is one JSON object: {"correct", "attempted", "failed",
// "metrics"}. The process exits non-zero when a correctness check fails.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"slices"
	"strconv"
	"strings"
	"time"
)

// options are the command-line flags.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    int
	traceOut string
	scale    float64
}

// runTimeout bounds one workload process: a wedged run fails instead of
// hanging the caller.
const runTimeout = 170 * time.Second

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload to run in this process ("+strings.Join(workloadNames, ", ")+"); empty runs each in a child process")
	flag.Uint64Var(&o.seed, "seed", 1, "seed for every input generator (1 is the tuning seed, 2 is held out)")
	flag.Float64Var(&o.seconds, "seconds", 20, "wall time one run measures, in seconds")
	flag.IntVar(&o.trace, "trace", 0, "0 reports end-to-end metrics; 1 also runs a traced pass and reports per-layer metrics")
	flag.StringVar(&o.traceOut, "trace-out", "", "write the traced pass's spans to this file as Chrome trace-event JSON")
	flag.Float64Var(&o.scale, "scale", 1, "shrinks the workloads: request counts, warm-up lengths, daemon seed slots and the aged drive (tests use small values)")
	flag.Parse()
	if err := o.validate(); err != nil {
		fmt.Fprintln(os.Stderr, "sprinklerbench:", err)
		os.Exit(2)
	}
	if o.workload == "" {
		os.Exit(runAll(o))
	}
	os.Exit(runOne(o))
}

func (o options) validate() error {
	if flag.NArg() > 0 {
		return fmt.Errorf("unexpected arguments %q", flag.Args())
	}
	if o.workload != "" && !slices.Contains(workloadNames, o.workload) {
		return fmt.Errorf("unknown workload %q (want one of %s)", o.workload, strings.Join(workloadNames, ", "))
	}
	if o.trace != 0 && o.trace != 1 {
		return fmt.Errorf("-trace must be 0 or 1, got %d", o.trace)
	}
	if !(o.seconds > 0) {
		return fmt.Errorf("-seconds must be positive, got %g", o.seconds)
	}
	if !(o.scale > 0) || o.scale > 1 {
		return fmt.Errorf("-scale must be in (0, 1], got %g", o.scale)
	}
	return nil
}

// runOne runs one workload in this process and prints its report.
func runOne(o options) int {
	ctx, cancel := context.WithTimeout(context.Background(), runTimeout)
	defer cancel()
	rep, err := runWorkload(ctx, o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "sprinklerbench: %s: %v\n", o.workload, err)
		return 1
	}
	if err := rep.write(os.Stdout, o.workload); err != nil {
		fmt.Fprintf(os.Stderr, "sprinklerbench: %s: %v\n", o.workload, err)
		return 1
	}
	if !rep.Correct {
		return 1
	}
	return 0
}

// runAll re-executes this binary once per workload (and once more per
// workload for the traced pass), so that each workload has its own peak
// RSS and garbage-collector state. Each child's lines are relayed when it
// exits; the exit status is non-zero if any child failed or was incorrect.
func runAll(o options) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "sprinklerbench:", err)
		return 1
	}
	status := 0
	for _, w := range workloadNames {
		for trace := 0; trace <= o.trace; trace++ {
			args := []string{
				"-workload", w,
				"-seed", strconv.FormatUint(o.seed, 10),
				"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64),
				"-trace", strconv.Itoa(trace),
				"-scale", strconv.FormatFloat(o.scale, 'g', -1, 64),
			}
			if trace == 1 && o.traceOut != "" {
				args = append(args, "-trace-out", o.traceOut+"."+w+".json")
			}
			if err := runChild(self, args); err != nil {
				fmt.Fprintf(os.Stderr, "sprinklerbench: %s (trace %d): %v\n", w, trace, err)
				status = 1
			}
		}
	}
	if status == 0 {
		fmt.Println("sprinklerbench: every workload passed its correctness checks")
	}
	return status
}

// runChild runs one child, relays its human-readable lines and checks the
// JSON report on its last line.
func runChild(self string, args []string) error {
	ctx, cancel := context.WithTimeout(context.Background(), runTimeout+10*time.Second)
	defer cancel()
	var out bytes.Buffer
	cmd := exec.CommandContext(ctx, self, args...)
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	runErr := cmd.Run()
	var last string
	sc := bufio.NewScanner(&out)
	for sc.Scan() {
		if last != "" {
			fmt.Println(last)
		}
		last = sc.Text()
	}
	if runErr != nil {
		return runErr
	}
	var rep report
	if err := json.Unmarshal([]byte(last), &rep); err != nil {
		return fmt.Errorf("last line is not a report: %w", err)
	}
	if !rep.Correct {
		return fmt.Errorf("%d of %d operations failed their checks", rep.Failed, rep.Attempted)
	}
	return nil
}
