package baseline_test

import (
	"math"
	"testing"

	"regraph/internal/baseline"
	"regraph/internal/graph"
)

func nm(u, v int) baseline.NodeMatch {
	return baseline.NodeMatch{U: u, V: graph.NodeID(v)}
}

func set(ms ...baseline.NodeMatch) map[baseline.NodeMatch]bool {
	out := map[baseline.NodeMatch]bool{}
	for _, m := range ms {
		out[m] = true
	}
	return out
}

func approx(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestEvaluatePerfect(t *testing.T) {
	truth := set(nm(0, 1), nm(1, 2))
	got := baseline.Evaluate(truth, truth)
	if !approx(got.Precision, 1) || !approx(got.Recall, 1) || !approx(got.FMeasure, 1) {
		t.Errorf("perfect match scored %+v", got)
	}
}

func TestEvaluatePartial(t *testing.T) {
	truth := set(nm(0, 1), nm(1, 2), nm(1, 3), nm(2, 4))
	found := set(nm(0, 1), nm(1, 2), nm(9, 9), nm(8, 8))
	got := baseline.Evaluate(found, truth)
	if !approx(got.Precision, 0.5) {
		t.Errorf("precision = %v, want 0.5", got.Precision)
	}
	if !approx(got.Recall, 0.5) {
		t.Errorf("recall = %v, want 0.5", got.Recall)
	}
	if !approx(got.FMeasure, 0.5) {
		t.Errorf("F = %v, want 0.5", got.FMeasure)
	}
}

func TestEvaluateHighRecallLowPrecision(t *testing.T) {
	// The Match baseline's profile: finds all true matches plus noise.
	truth := set(nm(0, 1), nm(1, 2))
	found := set(nm(0, 1), nm(1, 2), nm(0, 3), nm(1, 4), nm(0, 5), nm(1, 6))
	got := baseline.Evaluate(found, truth)
	if !approx(got.Recall, 1) {
		t.Errorf("recall = %v, want 1", got.Recall)
	}
	if !approx(got.Precision, 2.0/6.0) {
		t.Errorf("precision = %v, want 1/3", got.Precision)
	}
	wantF := 2 * (1.0 / 3.0) * 1 / (1.0/3.0 + 1)
	if !approx(got.FMeasure, wantF) {
		t.Errorf("F = %v, want %v", got.FMeasure, wantF)
	}
}

func TestEvaluateDegenerate(t *testing.T) {
	empty := set()
	truth := set(nm(0, 1))
	if got := baseline.Evaluate(empty, empty); !approx(got.FMeasure, 1) {
		t.Errorf("both empty should score 1, got %+v", got)
	}
	if got := baseline.Evaluate(empty, truth); !approx(got.Recall, 0) || !approx(got.FMeasure, 0) {
		t.Errorf("found nothing: %+v", got)
	}
	if got := baseline.Evaluate(truth, empty); !approx(got.Precision, 0) || !approx(got.FMeasure, 0) {
		t.Errorf("found noise only: %+v", got)
	}
}
