package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"maps"
	"math"
	"os"
	"path/filepath"
	"slices"
)

// benchmarkDecl is BENCHMARK.json: the command, the workloads and the
// metric declarations with their regression bounds.
type benchmarkDecl struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadBenchmark(root string) (*benchmarkDecl, error) {
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var d benchmarkDecl
	if err := json.Unmarshal(raw, &d); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &d, nil
}

func loadResults(path string) (*results, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r results
	if err := json.Unmarshal(raw, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// Verdicts of one comparison row.
const (
	verdictOK         = "ok"
	verdictRegression = "REGRESSION"
	verdictUnresolved = "unresolved"
)

// verdict applies one metric's bound to the two sides of a row. worse
// is B's median relative to A's in the metric's bad direction (0.04 =
// 4% worse). A row whose repetitions scatter wider than the bound on
// either side is unresolved, not unchanged — unless every repetition of
// B reads better than every repetition of A, which no scatter explains.
func verdict(a, b summary, better string, bound float64) (worse float64, v string) {
	if a.Median != 0 {
		worse = (b.Median - a.Median) / math.Abs(a.Median)
	}
	if better == "higher" {
		worse = -worse
	}
	if a.iqrShare() > bound || b.iqrShare() > bound {
		if len(a.Values) > 0 && len(b.Values) > 0 {
			if better == "higher" && slices.Min(b.Values) > slices.Max(a.Values) ||
				better == "lower" && slices.Max(b.Values) < slices.Min(a.Values) {
				return worse, verdictOK
			}
		}
		return worse, verdictUnresolved
	}
	if worse > bound {
		return worse, verdictRegression
	}
	return worse, verdictOK
}

// compareFiles prints one row per workload × end-to-end metric of two
// results files (A the parent, B the change) under BENCHMARK.json's
// bounds, and fails on a regression, a higher failed share, or an
// exact-count metric that differs.
func compareFiles(root, pathA, pathB string, w io.Writer) error {
	decl, err := loadBenchmark(root)
	if err != nil {
		return err
	}
	a, err := loadResults(pathA)
	if err != nil {
		return err
	}
	b, err := loadResults(pathB)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "A: %s (commit %s, seed %d)\nB: %s (commit %s, seed %d)\n", pathA, a.Env.Commit, a.Env.Seed, pathB, b.Env.Commit, b.Env.Seed)
	fmt.Fprintf(w, "%-18s %-10s %14s %24s %14s %24s %8s %6s  %s\n",
		"workload", "metric", "A median", "A q1..q3 (n)", "B median", "B q1..q3 (n)", "worse", "bound", "verdict")
	var bad []string
	rows, unresolved := 0, 0
	for _, ra := range a.Workloads {
		i := slices.IndexFunc(b.Workloads, func(r *runResult) bool { return r.Workload == ra.Workload })
		if i < 0 {
			continue
		}
		rb := b.Workloads[i]
		if ra.Traced != rb.Traced || ra.Seconds != rb.Seconds {
			return fmt.Errorf("%s: the two files were not run alike (traced %v/%v, seconds %d/%d)", ra.Workload, ra.Traced, rb.Traced, ra.Seconds, rb.Seconds)
		}
		for _, m := range decl.EndToEnd {
			sa, okA := ra.EndToEnd[m.Name]
			sb, okB := rb.EndToEnd[m.Name]
			if !okA || !okB {
				return fmt.Errorf("%s: metric %s missing from one side", ra.Workload, m.Name)
			}
			worse, v := verdict(sa, sb, m.Better, m.Bound)
			rows++
			switch v {
			case verdictRegression:
				bad = append(bad, fmt.Sprintf("%s %s worse by %.1f%% (bound %.0f%%)", ra.Workload, m.Name, 100*worse, 100*m.Bound))
			case verdictUnresolved:
				unresolved++
			}
			fmt.Fprintf(w, "%-18s %-10s %14.4f %24s %14.4f %24s %+7.1f%% %5.0f%%  %s\n", ra.Workload, m.Name,
				sa.Median, fmt.Sprintf("%.4g..%.4g (%d)", sa.Q1, sa.Q3, sa.N),
				sb.Median, fmt.Sprintf("%.4g..%.4g (%d)", sb.Q1, sb.Q3, sb.N), 100*worse, 100*m.Bound, v)
		}
		shareA := float64(ra.Failed) / float64(max(ra.Attempted, 1))
		shareB := float64(rb.Failed) / float64(max(rb.Attempted, 1))
		fmt.Fprintf(w, "%-18s %-10s %14g %24s %14g %24s\n", ra.Workload, "failed_op_share", shareA,
			fmt.Sprintf("%d of %d", ra.Failed, ra.Attempted), shareB, fmt.Sprintf("%d of %d", rb.Failed, rb.Attempted))
		if shareB > shareA {
			bad = append(bad, fmt.Sprintf("%s failed share rose from %g to %g", ra.Workload, shareA, shareB))
		}
		// Exact counts depend on the inputs' size, so they are compared
		// between runs of one seed only.
		if a.Env.Seed == b.Env.Seed {
			for _, k := range slices.Sorted(maps.Keys(ra.Exact)) {
				if vb, ok := rb.Exact[k]; !ok || vb != ra.Exact[k] {
					bad = append(bad, fmt.Sprintf("%s exact metric %s differs: %v vs %v", ra.Workload, k, ra.Exact[k], vb))
				}
			}
		}
	}
	if rows == 0 {
		return errors.New("the two files share no workload")
	}
	fmt.Fprintf(w, "%d rows, %d unresolved, %d failing\n", rows, unresolved, len(bad))
	if len(bad) > 0 {
		return fmt.Errorf("comparison failed: %v", bad)
	}
	return nil
}
