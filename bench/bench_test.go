package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"dynautosar/internal/api"
)

// The self-test runs every workload at 1/50 scale with all correctness
// checks on, and pins the generator's hygiene rules one test each.

func testCtx(t *testing.T, seed int64) *runCtx {
	t.Helper()
	return &runCtx{seed: seed, scale: 1.0 / 50, clients: min(runtime.NumCPU(), 2), tmp: t.TempDir(), reps: 1}
}

// scratchEmpty pins "temp journal directories removed": a plane deletes
// its directory when it closes, on success and on failure alike.
func scratchEmpty(t *testing.T, rc *runCtx) {
	t.Helper()
	left, err := os.ReadDir(rc.tmp)
	if err != nil {
		t.Fatal(err)
	}
	if len(left) != 0 {
		t.Errorf("%d entries left in the scratch directory, first %s", len(left), left[0].Name())
	}
}

func TestControlWorkloadsSmallScale(t *testing.T) {
	for _, name := range []string{"fleet_batch_mem", "fleet_batch_fed", "single_ops_fed"} {
		w, _ := findWorkload(name)
		rc := testCtx(t, 1)
		rr, err := runWorkload(w, rc, 1, false)
		if err != nil {
			t.Fatal(err)
		}
		if rr.Failed != 0 || rr.Attempted == 0 {
			t.Errorf("%s: attempted %d, failed %d: %v", name, rr.Attempted, rr.Failed, rr.Failures)
		}
		if _, err := rr.driverLine(); err != nil {
			t.Error(err)
		}
		scratchEmpty(t, rc)
	}
}

// TestVehicleWorkloadsExactCounts: the exact-count metrics repeat across
// two runs of one seed, and a second seed changes the inputs but not the
// counts per operation.
func TestVehicleWorkloadsExactCounts(t *testing.T) {
	for _, name := range []string{"signal_chain", "plugin_compute", "vehicle_lifecycle"} {
		w, _ := findWorkload(name)
		var exact []map[string]float64
		for _, seed := range []int64{1, 1, 2} {
			rr, err := runWorkload(w, testCtx(t, seed), 1, false)
			if err != nil {
				t.Fatal(err)
			}
			if rr.Failed != 0 {
				t.Fatalf("%s seed %d: %d failed: %v", name, seed, rr.Failed, rr.Failures)
			}
			if len(rr.Exact) == 0 {
				t.Fatalf("%s reports no exact metric", name)
			}
			exact = append(exact, rr.Exact)
		}
		if !reflect.DeepEqual(exact[0], exact[1]) {
			t.Errorf("%s: same seed, different exact metrics: %v vs %v", name, exact[0], exact[1])
		}
		if !reflect.DeepEqual(exact[0], exact[2]) {
			t.Errorf("%s: counts per operation depend on the seed: %v vs %v", name, exact[0], exact[2])
		}
	}
}

func TestSeedChangesInputs(t *testing.T) {
	if reflect.DeepEqual(fleetVINs(64, newRng(1)), fleetVINs(64, newRng(2))) {
		t.Error("vehicle order does not depend on the seed")
	}
	a, _, err := lifecyclePackages(newRng(1))
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := lifecyclePackages(newRng(2))
	if err != nil {
		t.Fatal(err)
	}
	ra, _ := a.MarshalBinary()
	rb, _ := b.MarshalBinary()
	if bytes.Equal(ra, rb) {
		t.Error("plug-in padding does not depend on the seed")
	}
	if len(ra) != len(rb) || len(ra) < lifecyclePadBytes {
		t.Errorf("padded packages are %d and %d bytes, want equal and at least %d", len(ra), len(rb), lifecyclePadBytes)
	}
}

// TestTracedRunsEmitEveryLayerMetric runs one control-plane and one
// vehicle workload traced and requires every declared per-layer metric,
// plus the separations the layers are predicted to show.
func TestTracedRunsEmitEveryLayerMetric(t *testing.T) {
	for _, name := range []string{"single_ops_fed", "vehicle_lifecycle"} {
		w, _ := findWorkload(name)
		rc := testCtx(t, 1)
		rr, err := runWorkload(w, rc, 1, true)
		if err != nil {
			t.Fatal(err)
		}
		line, err := rr.driverLine()
		if err != nil {
			t.Fatal(err)
		}
		if len(line.Metrics) != len(layerMetrics) {
			t.Errorf("%s: %d per-layer metrics emitted, %d declared", name, len(line.Metrics), len(layerMetrics))
		}
		if len(rr.spans)+len(rr.vspan) == 0 {
			t.Errorf("%s: traced run recorded no span", name)
		}
		for _, s := range separations(rr) {
			if !s.holds {
				t.Errorf("%s: predicted separation does not hold: %s", name, s.text)
			}
		}
		dir := t.TempDir()
		if err := writeResults(dir, name, true, &results{Workloads: []*runResult{rr}}); err != nil {
			t.Fatal(err)
		}
		if _, err := os.Stat(filepath.Join(dir, "trace-"+name+".json")); err != nil {
			t.Error(err)
		}
		scratchEmpty(t, rc)
	}
}

// TestBenchmarkJSONMatchesProgram: every metric and workload named in
// BENCHMARK.json is emitted with the declared unit, and vice versa.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	decl, err := loadBenchmark("..")
	if err != nil {
		t.Fatal(err)
	}
	if len(decl.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d implemented", len(decl.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if d := decl.Workloads[i]; d.Name != w.name || d.Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the program %q (%q)", i, d.Name, d.Why, w.name, w.why)
		}
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.name)
		}
	}
	if len(decl.EndToEnd) != len(e2eMetrics) {
		t.Fatalf("%d end-to-end metrics declared, %d emitted", len(decl.EndToEnd), len(e2eMetrics))
	}
	for i, m := range e2eMetrics {
		d := decl.EndToEnd[i]
		if d.Name != m.Name || d.Unit != m.Unit || d.Better != m.Better {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %+v, the program %+v", i, d, m)
		}
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
	}
	if len(decl.PerLayer) != len(layerMetrics) {
		t.Fatalf("%d per-layer metrics declared, %d emitted", len(decl.PerLayer), len(layerMetrics))
	}
	for i, m := range layerMetrics {
		if d := decl.PerLayer[i]; d.Name != m.Name || d.Unit != m.Unit || d.Better != m.Better {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %+v, the program %+v", i, d, m)
		}
	}
	if decl.RunSeconds != referenceSeconds {
		t.Errorf("run_seconds %d, the frozen sizes belong to %d", decl.RunSeconds, referenceSeconds)
	}
}

// TestPercentileRefusesThinTail pins the percentile picker: no tail is
// reported with fewer than ten samples beyond it.
func TestPercentileRefusesThinTail(t *testing.T) {
	xs := make([]float64, 99)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if _, err := percentile(xs, 0.90); err == nil || !strings.Contains(err.Error(), "n=99") {
		t.Errorf("p90 of 99 samples: err = %v, want a refusal that prints n", err)
	}
	xs = append(xs, 100)
	if got, err := percentile(xs, 0.90); err != nil || got != 90 {
		t.Errorf("p90 of 1..100 = %v, %v; want 90", got, err)
	}
	if _, err := percentile(xs, 0.95); err == nil {
		t.Error("p95 of 100 samples has 5 beyond it and must be refused")
	}
}

// TestQuartilesMatchPython: the spreads printed here are the ones
// statistics.quantiles(xs, n=4) gives the acceptance driver.
func TestQuartilesMatchPython(t *testing.T) {
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v, %v; want 2.75, 8.25", q1, q3)
	}
	q1, q3 = quartiles([]float64{1, 2, 4, 8, 16})
	if q1 != 1.5 || q3 != 12 {
		t.Errorf("quartiles(1,2,4,8,16) = %v, %v; want 1.5, 12", q1, q3)
	}
}

func TestCheckSizing(t *testing.T) {
	if err := checkSizing(2, 2, 2, 2); err != nil {
		t.Error(err)
	}
	if checkSizing(8, 2, 2, 2) == nil {
		t.Error("an inherited GOMAXPROCS above nproc must be refused")
	}
	if checkSizing(2, 2, 3, 2) == nil {
		t.Error("more operator clients than processors must be refused")
	}
}

// stuckPlane is a memory plane whose vehicles read pushes and never
// acknowledge them.
func stuckPlane(t *testing.T, deadline time.Duration) (*plane, *runCtx) {
	t.Helper()
	rc := testCtx(t, 1)
	pl, err := freshPlane(rc, false, fleetVINs(4, newRng(1)), 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = pl.close() })
	pl.deadline = deadline
	return pl, rc
}

// TestStuckFleetIsCountedFailure pins the per-operation deadline: a
// fleet that never acknowledges becomes failed operations without a
// latency sample, not a hang.
func TestStuckFleetIsCountedFailure(t *testing.T) {
	pl, _ := stuckPlane(t, 100*time.Millisecond)
	for _, p := range pl.peers {
		p.delay = time.Hour
	}
	r := &rep{control: &controlRep{kindLat: map[api.OperationKind][]float64{}}}
	start := time.Now()
	if err := pl.cycleFleet(r, pl.vins, 1, nil); err != nil {
		t.Fatal(err)
	}
	if took := time.Since(start); took > 2*time.Second {
		t.Errorf("a stuck fleet held the generator for %v", took)
	}
	if r.failed != len(pl.vins) || r.attempted != len(pl.vins) || len(r.lat) != 0 || len(r.errs) == 0 {
		t.Errorf("attempted %d, failed %d, %d latency samples, errs %v; want every vehicle failed and no sample", r.attempted, r.failed, len(r.lat), r.errs)
	}
}

// TestLatencySpansPeerStall pins where the clock is read: outside the
// lock the peers write acknowledgements under, so a sample covers a
// stall of the fleet instead of waiting behind it.
func TestLatencySpansPeerStall(t *testing.T) {
	pl, _ := stuckPlane(t, 5*time.Second)
	const stall = 60 * time.Millisecond
	for _, p := range pl.peers {
		p.mu.Lock()
	}
	go func() {
		time.Sleep(stall)
		for _, p := range pl.peers {
			p.mu.Unlock()
		}
	}()
	_, lat, err := pl.settle(func(ctx context.Context) (api.Operation, error) {
		return pl.client.BatchDeploy(ctx, api.BatchDeployRequest{User: fleetUser, Vehicles: pl.vins, App: appV1})
	}, pollBatch)
	if err != nil {
		t.Fatal(err)
	}
	if lat < stall {
		t.Errorf("latency %v is shorter than the %v the fleet was stalled", lat, stall)
	}
}

// TestCompareVerdicts pins the three verdicts of -compare.
func TestCompareVerdicts(t *testing.T) {
	tight := func(m float64) summary { return summarize([]float64{m * 0.99, m, m, m, m * 1.01}) }
	wide := summarize([]float64{70, 90, 100, 110, 130})
	for _, c := range []struct {
		name   string
		a, b   summary
		better string
		want   string
	}{
		{"same", tight(100), tight(101), "lower", verdictOK},
		{"slower", tight(100), tight(120), "lower", verdictRegression},
		{"faster", tight(100), tight(80), "lower", verdictOK},
		{"fewer per second", tight(100), tight(80), "higher", verdictRegression},
		{"scattered", wide, tight(100), "lower", verdictUnresolved},
		{"scattered but disjoint", wide, tight(50), "lower", verdictOK},
	} {
		if _, got := verdict(c.a, c.b, c.better, 0.10); got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
}

// TestCompareFiles drives -compare end to end on two synthetic files.
func TestCompareFiles(t *testing.T) {
	mk := func(ops float64, failed int) *results {
		return &results{Workloads: []*runResult{{
			Workload: "signal_chain", Seconds: 15, Attempted: 1000, Failed: failed,
			EndToEnd: map[string]summary{
				"setup_s":   summarize([]float64{1, 1, 1}),
				"ops_per_s": summarize([]float64{ops, ops, ops}),
				"op_us_p50": summarize([]float64{2, 2, 2}),
				"op_us_p90": summarize([]float64{3, 3, 3}),
			},
			Exact: map[string]float64{"can.frames_per_msg": 2},
		}}}
	}
	dir := t.TempDir()
	write := func(name string, r *results) string {
		raw, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base, same, slow, failing := write("a.json", mk(1000, 0)), write("b.json", mk(1001, 0)), write("c.json", mk(500, 0)), write("d.json", mk(1000, 1))
	var out bytes.Buffer
	if err := compareFiles("..", base, same, &out); err != nil {
		t.Errorf("A/A comparison failed: %v\n%s", err, out.String())
	}
	if err := compareFiles("..", base, slow, &out); err == nil {
		t.Error("half the throughput must fail the comparison")
	}
	if err := compareFiles("..", base, failing, &out); err == nil {
		t.Error("a higher failed share must fail the comparison")
	}
}

func TestSelfTimeTakesOutOverlappingChildren(t *testing.T) {
	spans := []span{
		{Parent: -1, Start: 0, End: 100},
		{Parent: 0, Start: 10, End: 50},
		{Parent: 0, Start: 30, End: 70}, // overlaps the first child
	}
	if got := selfTimes(spans)[0]; got != 40 {
		t.Errorf("self time %v, want 40 (100 minus the union 10..70)", got)
	}
}

// TestMergeSpansRebasesParents: spans of a second traced repetition keep
// pointing at their own parents once the lists are joined.
func TestMergeSpansRebasesParents(t *testing.T) {
	var trs []*tracer
	for range 2 {
		tr := newTracer()
		root := tr.begin("api", "Deploy", "", -1)
		tr.end(tr.begin("server", "Deploy", "", root), "")
		tr.end(root, "op-1")
		trs = append(trs, tr)
	}
	got := mergeSpans(trs)
	if len(got) != 4 || got[0].Parent != -1 || got[1].Parent != 0 || got[2].Parent != -1 || got[3].Parent != 2 {
		t.Errorf("merged parents %+v, want -1, 0, -1, 2", got)
	}
}

func TestDriftRatioNeedsNoNaN(t *testing.T) {
	if v := driftRatio([]*rep{{control: &controlRep{}}}); math.IsNaN(v) {
		t.Error("drift ratio of a repetition without cycles is NaN")
	}
}
