// Command bench is the repository's performance ledger: four workloads,
// one set of end-to-end metrics every workload reports, and a traced run
// that probes each internal/ layer from outside and reconciles the probes
// with the live local-hit, remote-hit and miss latencies. BENCHMARK.json
// at the repository root describes it; README.md in this directory says
// how each number is taken.
//
//	go run ./bench                                     # every workload, both runs, summary
//	go run ./bench -workload coop_mix -seed 7 -seconds 24 -trace 0
//	go run ./bench -workload coop_mix -seed 7 -seconds 24 -trace 1
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// runConfig is one run of one workload.
type runConfig struct {
	workload string
	seed     uint64
	seconds  float64
	traced   bool
	// quick shrinks warm-ups and probe batches for the smoke test; its
	// numbers mean nothing.
	quick bool
	// scratch is where disk_spill's tiers and the span files go. It is
	// relative to the working directory, which is the checkout root.
	scratch string
	log     io.Writer
}

// sliceLength is the nominal length of one slice of a timed phase: long
// enough to hold several garbage collections, short enough that some
// slices of every run fall wholly into a quiet spell of the host.
const sliceLength = time.Second

// sliceCount is how many slices a timed phase of length d is cut into.
// The smoke test's sub-second phases still get four.
func sliceCount(d time.Duration) int {
	if n := int(d / sliceLength); n > 4 {
		return n
	}
	return 4
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(os.Stderr)
	var (
		workload = fs.String("workload", "", "workload to run (coop_mix, local_hot, disk_spill, sim_bu); empty runs all four, untraced then traced, each in a fresh child process")
		seed     = fs.Uint64("seed", 1, "seed for every generated input")
		seconds  = fs.Float64("seconds", 24, "length of the timed phase, cut into slices of one second")
		trace    = fs.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics and a span file under artifacts/")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if *seconds <= 0 || *seconds > 120 {
		return fmt.Errorf("-seconds must be in (0, 120], got %v", *seconds)
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("-trace must be 0 or 1, got %d", *trace)
	}
	if *workload == "" {
		return runAll(*seed, *seconds, stdout)
	}
	w, ok := findWorkload(*workload)
	if !ok {
		return fmt.Errorf("unknown workload %q", *workload)
	}
	rc := runConfig{
		workload: w.name, seed: *seed, seconds: *seconds, traced: *trace == 1,
		scratch: "artifacts", log: stdout,
	}
	out, err := w.run(rc)
	if err != nil {
		return fmt.Errorf("%s: %w", w.name, err)
	}
	out.print(rc, w)
	line, err := json.Marshal(out.result(rc.traced))
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if len(out.failures) > 0 {
		return fmt.Errorf("%s: %d failed checks", w.name, len(out.failures))
	}
	return nil
}

// outcome is everything one run measured.
type outcome struct {
	attempted, failed int64
	values            map[string]float64
	spread            map[string]quartiles // quartiles over slices, for what is measured per slice
	notes             map[string]string    // why a metric reads 0 (nothing to measure) or -1 (source unreadable)
	info              []string             // the run's own record of how it was taken
	failures          []string             // failed correctness and validity checks
}

func newOutcome() *outcome {
	return &outcome{values: map[string]float64{}, spread: map[string]quartiles{}, notes: map[string]string{}}
}

func (o *outcome) set(name string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		o.na(name, "no samples")
		return
	}
	o.values[name] = v
}

// setMedian reports the median over slices and keeps the quartiles.
func (o *outcome) setMedian(name string, perSlice []float64) {
	q := quartilesOf(perSlice)
	o.set(name, q.med)
	if !math.IsNaN(q.med) {
		o.spread[name] = q
	}
}

// setUndisturbed reports a speed metric: the mean of the best eighth of
// the slices, with the quartiles over all slices kept beside it.
func (o *outcome) setUndisturbed(name string, perSlice []float64, higherIsBetter bool) {
	o.set(name, undisturbed(perSlice, higherIsBetter))
	if q := quartilesOf(perSlice); !math.IsNaN(q.med) {
		o.spread[name] = q
	}
}

// na marks a metric that has nothing to measure on this workload. The
// result line admits only numbers, so it reads 0 there; the table prints
// the reason.
func (o *outcome) na(name, why string) {
	o.values[name] = 0
	o.notes[name] = "n/a: " + why
}

// unreadable marks a metric whose source could not be read: -1 on the
// result line (never a silent 0), null with the reason in the table.
func (o *outcome) unreadable(name, why string) {
	o.values[name] = -1
	o.notes[name] = "null: " + why
}

func (o *outcome) check(ok bool, format string, args ...any) {
	if !ok {
		o.failures = append(o.failures, fmt.Sprintf(format, args...))
	}
}

func (o *outcome) infof(format string, args ...any) {
	o.info = append(o.info, fmt.Sprintf(format, args...))
}

// recordEnvironment notes what a reader needs to recognise a run taken
// on a different or a disturbed machine.
func (o *outcome) recordEnvironment(rc runConfig, clients int) {
	o.infof("go %s, GOMAXPROCS %d, nproc %d, C (closed-loop clients) %d, seed %d",
		runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU(), clients, rc.seed)
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// result is the contract's last line: every end-to-end metric for an
// untraced run, every per-layer metric for a traced one.
func (o *outcome) result(traced bool) resultLine {
	specs := endToEnd
	if traced {
		specs = perLayer
	}
	rl := resultLine{
		Correct:   len(o.failures) == 0 && o.failed == 0,
		Attempted: o.attempted, Failed: o.failed,
		Metrics: map[string]metricValue{},
	}
	for _, m := range specs {
		v, ok := o.values[m.name]
		if !ok {
			v = -1 // a metric the run forgot is a bug; show it rather than hide it
			rl.Correct = false
		}
		rl.Metrics[m.name] = metricValue{Value: v, Unit: m.unit}
	}
	return rl
}

func (o *outcome) print(rc runConfig, w workloadSpec) {
	mode := "untraced"
	if rc.traced {
		mode = "traced"
	}
	fmt.Fprintf(rc.log, "== %s (%s run) ==\n   %s\n", w.name, mode, w.why)
	for _, line := range o.info {
		fmt.Fprintf(rc.log, "   %s\n", line)
	}
	row := func(m metricSpec) {
		v, ok := o.values[m.name]
		if !ok {
			return
		}
		text := strconv.FormatFloat(v, 'g', 6, 64)
		if note, ok := o.notes[m.name]; ok {
			text = note
		}
		fmt.Fprintf(rc.log, "   %-38s %14s %-6s", m.name, text, m.unit)
		if q, ok := o.spread[m.name]; ok {
			fmt.Fprintf(rc.log, "  slices q1 %.6g  median %.6g  q3 %.6g", q.q1, q.med, q.q3)
		}
		fmt.Fprintln(rc.log)
	}
	fmt.Fprintln(rc.log, "   -- end to end --")
	for _, m := range endToEnd {
		row(m)
	}
	fmt.Fprintln(rc.log, "   -- per layer (what this run measured of it) --")
	for _, m := range perLayer {
		row(m)
	}
	fmt.Fprintf(rc.log, "   attempted %d, failed %d\n   %s\n", o.attempted, o.failed, unresolvedSpeed)
	for _, f := range o.failures {
		fmt.Fprintf(rc.log, "   CHECK FAILED: %s\n", f)
	}
}

// unresolvedSpeed is said by every run and by the summary: the ledger
// records speed and does not gate it.
const unresolvedSpeed = "speed is unresolved on this host: throughput_rps, cpu_us_per_req, user_cpu_us_per_req, the class latencies and lat_p99_us are recorded without a bound, because their run-to-run spread here has exceeded 0.25, the widest bound a metric may have; compare them in alternating pairs of parent and change"

// runAll runs every workload, untraced and then traced, each in a fresh
// child process so that peak RSS and heap state do not leak from one
// workload into the next, and ends with a summary whose last key is the
// claim this ledger makes: none.
func runAll(seed uint64, seconds float64, stdout io.Writer) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	type summary struct {
		Workloads  map[string]map[string]resultLine `json:"workloads"`
		Failed     []string                         `json:"failed"`
		Unresolved string                           `json:"unresolved"`
		Claim      *string                          `json:"claim"`
	}
	sum := summary{Workloads: map[string]map[string]resultLine{}, Failed: []string{}, Unresolved: unresolvedSpeed}
	for _, w := range workloads {
		sum.Workloads[w.name] = map[string]resultLine{}
		for _, trace := range []string{"0", "1"} {
			cmd := exec.Command(self, "-workload", w.name, "-seed", strconv.FormatUint(seed, 10),
				"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", trace)
			cmd.Stderr = os.Stderr
			pipe, err := cmd.StdoutPipe()
			if err != nil {
				return err
			}
			if err := cmd.Start(); err != nil {
				return err
			}
			var last string
			sc := bufio.NewScanner(pipe)
			sc.Buffer(make([]byte, 1<<20), 1<<20)
			for sc.Scan() {
				last = sc.Text()
				fmt.Fprintln(stdout, last)
			}
			runErr := cmd.Wait()
			var rl resultLine
			if err := json.Unmarshal([]byte(last), &rl); err != nil {
				runErr = errors.Join(runErr, fmt.Errorf("no result line: %w", err))
			} else {
				sum.Workloads[w.name]["trace"+trace] = rl
			}
			if runErr != nil || !rl.Correct {
				sum.Failed = append(sum.Failed, fmt.Sprintf("%s trace=%s: %v", w.name, trace, runErr))
			}
		}
	}
	sort.Strings(sum.Failed)
	raw, err := json.Marshal(sum)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s\n", raw)
	if len(sum.Failed) > 0 {
		return errors.New(strings.Join(sum.Failed, "; "))
	}
	return nil
}
