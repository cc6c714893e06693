package main

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"
)

// repetitions is how many times a run repeats its workload on fresh
// state; the reported value of every end-to-end metric is the median
// over them, which is what keeps one scheduler hiccup on a shared
// 2-core machine out of the result.
const repetitions = 5

// Traced runs spend the same time differently: untraced and traced
// repetitions alternate, so the tracing overhead is measured inside one
// process on one machine state.
const tracedPairs = 2

// referenceSeconds is the -seconds value the frozen work sizes belong
// to; other values scale every count linearly.
const referenceSeconds = 15

// runCtx is what a repetition needs to know about its run.
type runCtx struct {
	seed    int64
	scale   float64 // -seconds / referenceSeconds
	clients int     // closed-loop operator clients of single_ops_fed
	tmp     string  // scratch directory inside the checkout
	reps    int     // repetitions of an untraced run
}

// Set-up rounds: a repetition whose fresh state takes well under a
// second to build builds it several times and reports the median build,
// so set-up time is not one page fault's worth of noise. A memory-only
// server with its fleet takes milliseconds, a model car or a standalone
// PIRTE a tenth of one: fifteen builds of those end inside the first
// allocations after the collection that opens the repetition, and their
// median read 0.1 ms or 0.25 ms from run to run. Set-ups that take tenths
// of a second (journals, replicas, HTTP) are built once per repetition.
const (
	memSetupRounds = 15
	carSetupRounds = 201
)

// timedSetup builds the repetition's state `rounds` times, discarding
// all but the last, and returns it with the median build time.
func timedSetup[T any](rounds int, build func() (T, error), discard func(T) error) (T, time.Duration, error) {
	var state T
	times := make([]float64, 0, rounds)
	for i := 0; i < rounds; i++ {
		start := time.Now()
		st, err := build()
		if err != nil {
			return state, 0, err
		}
		times = append(times, float64(time.Since(start)))
		if i < rounds-1 {
			if err := discard(st); err != nil {
				return state, 0, err
			}
			continue
		}
		state = st
	}
	return state, time.Duration(median(times)), nil
}

// scaled sizes a frozen count to the run length, never below floor.
func (rc *runCtx) scaled(n, floor int) int {
	return max(int(math.Round(float64(n)*rc.scale)), floor)
}

// rep is the result of one repetition.
type rep struct {
	setup    time.Duration // fresh state built, before the first timed operation
	measured time.Duration // the timed phase
	ops      int           // unit operations completed in it
	lat      []float64     // request latencies, µs

	attempted, failed int
	errs              []error // why operations failed (bounded by the workload)

	cpu        time.Duration // user+system time of the process over the timed phase
	heapMB     float64       // heap in use when the timed phase ended
	goroutines int           // goroutines alive when it ended

	// exact holds the counts and simulated times that must repeat
	// bit-for-bit across repetitions and across runs of one seed.
	exact map[string]float64

	control *controlRep // control-plane workloads
	vehicle *vehicleRep // data-plane workloads
}

// endPhase closes a timed phase that ran from phaseStart: wall time,
// processor time, heap and goroutines as they stand before teardown.
func (r *rep) endPhase(phaseStart time.Time, cpuStart time.Duration) {
	r.measured = time.Since(phaseStart)
	r.cpu = cpuTime() - cpuStart
	r.heapMB, r.goroutines = memNow()
}

func newRng(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// workload is one named set of inputs. run performs one repetition on
// fresh state; a non-nil tracer asks for spans at the layer seams.
type workload struct {
	name string
	unit string // what ops counts
	req  string // what one latency sample spans
	why  string
	run  func(rc *runCtx, tr *tracer) (*rep, error)
}

var workloads = []workload{
	{
		name: "fleet_batch_mem", unit: "vehicle-op", req: "batch request sent → parent observed Done",
		why: "plan, verify, context generation, op registry, pusher and codec do all the work; journal, replication, federation and HTTP do none",
		run: func(rc *runCtx, tr *tracer) (*rep, error) {
			return runFleetBatch(rc, false, batchCyclesMem, tr)
		},
	},
	{
		name: "fleet_batch_fed", unit: "vehicle-op", req: "batch request sent → parent observed Done",
		why: "the operator-request → last-ack-settled path at fleet scale through router, journals, synchronous replicas and HTTP: throughput-bound, amortisation wins",
		run: func(rc *runCtx, tr *tracer) (*rep, error) {
			return runFleetBatch(rc, true, batchCyclesFed, tr)
		},
	},
	{
		name: "single_ops_fed", unit: "vehicle-op", req: "single-vehicle request sent → operation observed Done",
		why: "the same federated layers used latency-bound with reads beside writes: nothing to amortise, so a wider commit window that helps fleet_batch_fed costs here",
		run: func(rc *runCtx, tr *tracer) (*rep, error) {
			// At least 102 pooled samples per repetition, so p90 has its ten
			// samples beyond it at any scale and client count.
			return runSingleOps(rc, rc.scaled(singleIters, 34/rc.clients+1), tr)
		},
	},
	{
		name: "signal_chain", unit: "message", req: "phone command at the ECM → wheel angle at the actuator",
		why: "the paper's Figure 3 path across ecm, pirte, vm, rte, com, can, osek and sim; the VM does two tiny activations per message, so VM work is a small share",
		run: runSignalChain,
	},
	{
		name: "plugin_compute", unit: "activation", req: "message delivered to the plug-in → result on its type III port",
		why: "a 1000-iteration loop per activation on a standalone PIRTE: the VM does nearly all the work and com/can none, the twin of signal_chain",
		run: runPluginCompute,
	},
	{
		name: "vehicle_lifecycle", unit: "lifecycle", req: "install message at the ECM → plug-in upgraded, probed and uninstalled",
		why: "bulk ISO-TP transfer, package decode, install/upgrade state machine and NvM with traffic inside the quiesce window: the vehicle half of an operator deploy",
		run: runVehicleLifecycle,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// e2e are the end-to-end metrics of one repetition. Every workload
// reports all four; what an operation and a request are is the
// workload's unit and req.
func (r *rep) e2e() (map[string]float64, error) {
	p50, err := percentile(r.lat, 0.50)
	if err != nil {
		return nil, fmt.Errorf("op_us_p50: %w", err)
	}
	// p90 is the highest percentile every workload can carry: the batch
	// workloads take 3 × cycles samples per repetition.
	p90, err := percentile(r.lat, 0.90)
	if err != nil {
		return nil, fmt.Errorf("op_us_p90: %w", err)
	}
	return map[string]float64{
		"setup_s":   r.setup.Seconds(),
		"ops_per_s": float64(r.ops) / r.measured.Seconds(),
		"op_us_p50": p50,
		"op_us_p90": p90,
	}, nil
}

// runResult is one workload's run: the repetitions, the per-metric
// summaries over them, and (traced) the per-layer metrics.
type runResult struct {
	Workload  string             `json:"workload"`
	Unit      string             `json:"unit"`
	Request   string             `json:"request"`
	Seed      int64              `json:"seed"`
	Seconds   int                `json:"seconds"`
	Traced    bool               `json:"traced"`
	WallS     float64            `json:"wall_s"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Samples   int                `json:"latency_samples_per_rep"`
	EndToEnd  map[string]summary `json:"end_to_end"`
	Exact     map[string]float64 `json:"exact"`
	PerLayer  map[string]float64 `json:"per_layer,omitempty"`
	Failures  []string           `json:"failures,omitempty"`

	spans []span // traced repetitions, for the Chrome trace file
	vspan []span // the same in virtual time
}

// maxFailuresShown bounds the failure list in the output.
const maxFailuresShown = 8

// runWorkload performs the repetitions of one run and folds them.
// Untraced: `repetitions` repetitions. Traced: tracedPairs pairs of an
// untraced and a traced repetition, then the isolation timings.
func runWorkload(w workload, rc *runCtx, seconds int, traced bool) (*runResult, error) {
	start := time.Now()
	res := &runResult{Workload: w.name, Unit: w.unit, Request: w.req, Seed: rc.seed, Seconds: seconds, Traced: traced}
	var plain, withSpans []*rep
	var tracers []*tracer
	n := rc.reps
	if traced {
		n = 2 * tracedPairs
	}
	for i := 0; i < n; i++ {
		var tr *tracer
		if traced && i%2 == 1 {
			tr = newTracer()
		}
		// Every repetition starts from a collected heap, so one
		// repetition's garbage is not the next one's pause.
		runtime.GC()
		before := runtime.NumGoroutine()
		r, err := w.run(rc, tr)
		if err != nil {
			return nil, fmt.Errorf("%s repetition %d: %w", w.name, i, err)
		}
		if err := awaitGoroutines(before); err != nil {
			return nil, fmt.Errorf("%s repetition %d: %w", w.name, i, err)
		}
		res.Attempted += r.attempted
		res.Failed += r.failed
		for _, e := range r.errs {
			if len(res.Failures) < maxFailuresShown {
				res.Failures = append(res.Failures, e.Error())
			}
		}
		if tr != nil {
			withSpans = append(withSpans, r)
			tracers = append(tracers, tr)
		} else {
			plain = append(plain, r)
		}
	}
	if res.Failed > 0 {
		res.WallS = time.Since(start).Seconds()
		return res, nil
	}
	exact, err := sameExact(slices.Concat(plain, withSpans))
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	res.Exact = exact
	res.Samples = len(plain[0].lat)
	if res.EndToEnd, err = summarizeE2E(plain); err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	if traced {
		tracedE2E, err := summarizeE2E(withSpans)
		if err != nil {
			return nil, fmt.Errorf("%s traced: %w", w.name, err)
		}
		res.spans = mergeSpans(tracers)
		for _, tr := range tracers {
			res.vspan = append(res.vspan, tr.virtual...)
		}
		res.PerLayer, err = perLayer(w, rc, plain, withSpans, res.spans, res.EndToEnd, tracedE2E)
		if err != nil {
			return nil, fmt.Errorf("%s per-layer: %w", w.name, err)
		}
	}
	res.WallS = time.Since(start).Seconds()
	return res, nil
}

// awaitGoroutines waits for a repetition's goroutines (peers, pushers,
// HTTP server, journal writers) to have exited, so none carries over
// into the next repetition's measurement. The slack covers the runtime's
// own helpers, which come and go.
func awaitGoroutines(before int) error {
	const slack = 2
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before+slack {
		if time.Now().After(deadline) {
			return fmt.Errorf("%d goroutines outlived the repetition (%d before it)", runtime.NumGoroutine()-before, before)
		}
		time.Sleep(time.Millisecond)
	}
	return nil
}

func summarizeE2E(reps []*rep) (map[string]summary, error) {
	cols := map[string][]float64{}
	for _, r := range reps {
		m, err := r.e2e()
		if err != nil {
			return nil, err
		}
		for k, v := range m {
			cols[k] = append(cols[k], v)
		}
	}
	out := make(map[string]summary, len(cols))
	for k, xs := range cols {
		out[k] = summarize(xs)
	}
	return out, nil
}

// sameExact requires the exact-count metrics to be identical across the
// repetitions and returns them.
func sameExact(reps []*rep) (map[string]float64, error) {
	first := reps[0].exact
	for i, r := range reps[1:] {
		if len(r.exact) != len(first) {
			return nil, fmt.Errorf("repetition %d reports %d exact metrics, repetition 0 %d", i+1, len(r.exact), len(first))
		}
		for k, v := range first {
			if got, ok := r.exact[k]; !ok || got != v {
				return nil, fmt.Errorf("exact metric %s: %v in repetition 0, %v in repetition %d", k, v, got, i+1)
			}
		}
	}
	return first, nil
}

// scratchDir creates the run's scratch directory inside the checkout
// (journals, replicas) and returns it with its remover. tmpfs would
// keep the device out of the numbers, but a run may only touch its own
// checkout; the real fsync is still issued either way and the device
// flush that counts is the injected constant.
func scratchDir(root string) (string, func() error, error) {
	base := filepath.Join(root, ".bench_build", "tmp")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return "", nil, err
	}
	dir, err := os.MkdirTemp(base, "run-")
	if err != nil {
		return "", nil, err
	}
	return dir, func() error { return os.RemoveAll(dir) }, nil
}

// us and ms convert a duration to float microseconds / milliseconds.
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// memNow reads the heap in use (MiB) and the goroutine count.
func memNow() (float64, int) {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapInuse) / (1 << 20), runtime.NumGoroutine()
}
