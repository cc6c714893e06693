// Command bench is the repository's one benchmark for both planes:
// operator request → last vehicle ack settled on the control plane, and
// plug-in message in → actuator out on the vehicle, each end to end and
// (in a traced run) layer by layer. It drives the public package APIs
// from outside; nothing in the program under test knows it is measured.
// See README.md beside this file for the workloads, the metric glossary
// and the injected delays.
//
//	bash bench/run.sh                                  # all six workloads
//	bash bench/run.sh --workload signal_chain --seed 7 --seconds 15 --trace 1
//	bash bench/run.sh --compare A.json B.json
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"maps"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"syscall"
	"time"
)

// environment is the block of the results file that says where and how
// the numbers were taken.
type environment struct {
	Commit      string `json:"commit"`
	Seed        int64  `json:"seed"`
	Seconds     int    `json:"seconds"`
	NProc       int    `json:"nproc"`
	GOMAXPROCS  int    `json:"gomaxprocs"`
	GoVersion   string `json:"go_version"`
	CPUModel    string `json:"cpu_model"`
	JournalFS   string `json:"journal_fs"`
	Clients     int    `json:"operator_clients_single_ops"`
	Repetitions int    `json:"repetitions"`

	SyncDelayUS  float64 `json:"injected_flush_us"`
	ShipDelayUS  float64 `json:"injected_ship_us"`
	AckDelayUS   float64 `json:"injected_vehicle_ack_us"`
	PollSingleUS float64 `json:"poll_single_us"`
	PollBatchUS  float64 `json:"poll_batch_us"`
	OpDeadlineS  float64 `json:"op_deadline_s"`
	RateLimit    string  `json:"v1_rate_limit"`
	Logging      string  `json:"server_logging"`
	Note         string  `json:"note"`
}

// results is the file a run writes and -compare reads.
type results struct {
	Env       environment  `json:"environment"`
	Workloads []*runResult `json:"workloads"`
}

// driverLine is the last line of standard output in -workload mode.
type driverLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]driverValue `json:"metrics"`
}

type driverValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	name := fs.String("workload", "", "run one workload (default: all six, one after the other)")
	seed := fs.Int64("seed", 1, "workload seed: vehicle order, client assignment, command values, plug-in padding")
	seconds := fs.Int("seconds", referenceSeconds, "run length the frozen work sizes are scaled to")
	trace := fs.Int("trace", 0, "1: traced run (per-layer metrics, Chrome trace file); 0: end-to-end metrics")
	out := fs.String("out", "", "directory for the results and trace files (default .bench_build/out in the checkout)")
	compare := fs.Bool("compare", false, "compare two results files: -compare A.json B.json")
	if err := fs.Parse(args); err != nil {
		return err
	}
	root, err := findRoot()
	if err != nil {
		return err
	}
	if *compare {
		if fs.NArg() != 2 {
			return errors.New("-compare takes two results files")
		}
		return compareFiles(root, fs.Arg(0), fs.Arg(1), os.Stdout)
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("unexpected arguments %v", fs.Args())
	}
	if *seconds < 1 || *seconds > 60 {
		return fmt.Errorf("-seconds %d outside 1..60", *seconds)
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("-trace %d: want 0 or 1", *trace)
	}
	selected := workloads
	if *name != "" {
		w, ok := findWorkload(*name)
		if !ok {
			return fmt.Errorf("unknown workload %q", *name)
		}
		selected = []workload{w}
	}

	nproc := runtime.NumCPU()
	procs := min(nproc, 4)
	clients := nproc
	if err := checkSizing(runtime.GOMAXPROCS(0), procs, clients, nproc); err != nil {
		return err
	}
	runtime.GOMAXPROCS(procs)

	tmp, cleanup, err := scratchDir(root)
	if err != nil {
		return err
	}
	// Journals and replicas go whether the run ends well, fails or is
	// interrupted.
	defer cleanup()
	interrupted := make(chan os.Signal, 1)
	signal.Notify(interrupted, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-interrupted
		_ = cleanup() // the exit status already says the run did not finish
		os.Exit(1)
	}()
	if *out == "" {
		*out = filepath.Join(root, ".bench_build", "out")
	}
	rc := &runCtx{seed: *seed, scale: float64(*seconds) / referenceSeconds, clients: clients, tmp: tmp, reps: repetitions}
	res := results{Env: describe(root, rc, *seconds, procs, nproc)}
	traced := *trace == 1
	var failed []string
	for _, w := range selected {
		fmt.Printf("== %s (seed %d, %d s, traced=%v)\n", w.name, *seed, *seconds, traced)
		rr, err := runWorkload(w, rc, *seconds, traced)
		if err != nil {
			return err
		}
		res.Workloads = append(res.Workloads, rr)
		printRun(os.Stdout, rr)
		if rr.Failed > 0 {
			failed = append(failed, fmt.Sprintf("%s: %d of %d operations failed: %s", w.name, rr.Failed, rr.Attempted, strings.Join(rr.Failures, "; ")))
		}
	}
	if len(failed) > 0 {
		return fmt.Errorf("operations failed: %s", strings.Join(failed, " | "))
	}
	if err := writeResults(*out, *name, traced, &res); err != nil {
		return err
	}
	for _, rr := range res.Workloads {
		line, err := rr.driverLine()
		if err != nil {
			return err
		}
		raw, err := json.Marshal(line)
		if err != nil {
			return err
		}
		fmt.Println(string(raw))
	}
	return nil
}

// checkSizing refuses a load generator that could out-thread the
// machine: the Go scheduler may not be given more processors than the
// machine has (an inherited GOMAXPROCS included), and single_ops_fed may
// not run more closed-loop clients than that.
func checkSizing(inherited, procs, clients, nproc int) error {
	if inherited > nproc || procs > nproc {
		return fmt.Errorf("GOMAXPROCS %d exceeds the %d processors of this machine", max(inherited, procs), nproc)
	}
	if clients > nproc {
		return fmt.Errorf("%d operator clients exceed the %d processors of this machine", clients, nproc)
	}
	return nil
}

// findRoot returns the checkout root: the nearest directory at or above
// the working directory that holds BENCHMARK.json.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for d := dir; ; d = filepath.Dir(d) {
		if _, err := os.Stat(filepath.Join(d, "BENCHMARK.json")); err == nil {
			return d, nil
		}
		if d == filepath.Dir(d) {
			return "", fmt.Errorf("no BENCHMARK.json at or above %s", dir)
		}
	}
}

func describe(root string, rc *runCtx, seconds, procs, nproc int) environment {
	return environment{
		Commit: gitCommit(root), Seed: rc.seed, Seconds: seconds,
		NProc: nproc, GOMAXPROCS: procs, GoVersion: runtime.Version(), CPUModel: cpuModel(),
		JournalFS: fsKind(rc.tmp), Clients: rc.clients, Repetitions: rc.reps,
		SyncDelayUS: us(syncDelay), ShipDelayUS: us(shipDelay), AckDelayUS: us(ackDelay),
		PollSingleUS: us(pollSingle), PollBatchUS: us(pollBatch), OpDeadlineS: opDeadline.Seconds(),
		RateLimit: "off (api.HandlerOptions.RatePerSecond = -1)",
		Logging:   "off (server, handler, router and journal loggers left at their no-op defaults)",
		Note: "flush, ship and vehicle-ack delays are injected constants, not device measurements; " +
			"fleet_batch_mem injects none, its latency is processor time only",
	}
}

// gitCommit reads the checked-out commit from .git without running git;
// "unknown" outside a repository.
func gitCommit(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	h := strings.TrimSpace(string(head))
	ref, ok := strings.CutPrefix(h, "ref: ")
	if !ok {
		return h
	}
	if raw, err := os.ReadFile(filepath.Join(root, ".git", filepath.FromSlash(ref))); err == nil {
		return strings.TrimSpace(string(raw))
	}
	return ref
}

func cpuModel() string {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// fsKind names the filesystem type dir lives on, from /proc/mounts.
func fsKind(dir string) string {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "unknown"
	}
	raw, err := os.ReadFile("/proc/mounts")
	if err != nil {
		return "unknown"
	}
	best, kind := "", "unknown"
	for _, line := range strings.Split(string(raw), "\n") {
		f := strings.Fields(line)
		if len(f) < 3 {
			continue
		}
		mp := f[1]
		if (abs == mp || strings.HasPrefix(abs, strings.TrimSuffix(mp, "/")+"/")) && len(mp) >= len(best) {
			best, kind = mp, f[2]
		}
	}
	return kind
}

// cpuTime is the process's user+system time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// driverLine folds a run into the acceptance driver's line: every
// end-to-end metric untraced, every per-layer metric traced.
func (rr *runResult) driverLine() (driverLine, error) {
	line := driverLine{Correct: rr.Failed == 0, Attempted: rr.Attempted, Failed: rr.Failed, Metrics: map[string]driverValue{}}
	if rr.Traced {
		for _, m := range layerMetrics {
			v, ok := rr.PerLayer[m.Name]
			if !ok {
				return line, fmt.Errorf("%s: per-layer metric %s was not measured", rr.Workload, m.Name)
			}
			line.Metrics[m.Name] = driverValue{Value: v, Unit: m.Unit}
		}
		return line, nil
	}
	for _, m := range e2eMetrics {
		s, ok := rr.EndToEnd[m.Name]
		if !ok {
			return line, fmt.Errorf("%s: end-to-end metric %s was not measured", rr.Workload, m.Name)
		}
		line.Metrics[m.Name] = driverValue{Value: s.Median, Unit: m.Unit}
	}
	return line, nil
}

// printRun prints every metric of a run by name with its unit.
func printRun(w *os.File, rr *runResult) {
	fmt.Fprintf(w, "   unit operation: %s; request: %s\n", rr.Unit, rr.Request)
	fmt.Fprintf(w, "   attempted %d, failed %d, failed share %g, latency samples per repetition %d, wall %.1f s\n",
		rr.Attempted, rr.Failed, float64(rr.Failed)/float64(max(rr.Attempted, 1)), rr.Samples, rr.WallS)
	for _, f := range rr.Failures {
		fmt.Fprintf(w, "   FAILED %s\n", f)
	}
	for _, m := range e2eMetrics {
		if s, ok := rr.EndToEnd[m.Name]; ok {
			fmt.Fprintf(w, "   %-28s %14.4f %-6s (q1 %.4f, q3 %.4f, n %d repetitions, IQR %.1f%%)\n",
				m.Name, s.Median, m.Unit, s.Q1, s.Q3, s.N, 100*s.iqrShare())
		}
	}
	for _, k := range slices.Sorted(maps.Keys(rr.Exact)) {
		fmt.Fprintf(w, "   %-28s %14.4f %-6s (exact: identical in every repetition)\n", k, rr.Exact[k], layerUnit(k))
	}
	if rr.Traced {
		fmt.Fprintln(w, "   -- per layer --")
		for _, m := range layerMetrics {
			if v, ok := rr.PerLayer[m.Name]; ok {
				fmt.Fprintf(w, "   %-36s %14.4f %s\n", m.Name, v, m.Unit)
			}
		}
		fmt.Fprintln(w, "   -- predicted separations --")
		for _, s := range separations(rr) {
			verdict := "holds"
			if !s.holds {
				verdict = "DOES NOT HOLD"
			}
			fmt.Fprintf(w, "   %-13s %s\n", verdict, s.text)
		}
	}
}

// writeResults writes the results file and, for traced runs, one Chrome
// trace-event file per workload.
func writeResults(dir, workload string, traced bool, res *results) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	stem := "results"
	if workload != "" {
		stem += "-" + workload
	}
	if traced {
		stem += "-traced"
		for _, rr := range res.Workloads {
			events := append(chromeEvents(rr.spans, pidHost), chromeEvents(rr.vspan, pidVirtual)...)
			path := filepath.Join(dir, "trace-"+rr.Workload+".json")
			if err := writeChromeTrace(path, events); err != nil {
				return err
			}
			fmt.Printf("   wrote %s (%d spans)\n", path, len(events))
		}
	}
	raw, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(dir, stem+".json")
	if err := os.WriteFile(path, append(raw, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("   wrote %s\n", path)
	return nil
}
