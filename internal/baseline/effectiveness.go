package baseline

// This file holds the effectiveness measures of the paper's Exp-1:
// precision, recall and F-measure over sets of (pattern node, data
// node) match pairs, where the "true" matches are those satisfying both
// the node predicates and the regular-expression edge constraints (i.e.
// the PQ answer itself).

// PRF holds precision, recall and F-measure.
type PRF struct {
	Precision float64
	Recall    float64
	FMeasure  float64
}

// Evaluate compares a found match set against the true match set:
//
//	recall    = #true_matches_found / #true_matches
//	precision = #true_matches_found / #matches
//	F-measure = 2 (recall · precision) / (recall + precision)
//
// Degenerate cases: with no true matches recall is 1 when nothing was
// found (vacuously correct) and 0 otherwise; with nothing found precision
// is 1 when there were no true matches and 0 otherwise.
func Evaluate(found, truth map[NodeMatch]bool) PRF {
	truePos := 0
	for m := range found {
		if truth[m] {
			truePos++
		}
	}
	var p, r float64
	switch {
	case len(found) == 0 && len(truth) == 0:
		p, r = 1, 1
	case len(found) == 0:
		p, r = 1, 0 // found nothing: no false positives, missed everything
	case len(truth) == 0:
		p, r = 0, 1
	default:
		p = float64(truePos) / float64(len(found))
		r = float64(truePos) / float64(len(truth))
	}
	f := 0.0
	if p+r > 0 {
		f = 2 * p * r / (p + r)
	}
	return PRF{Precision: p, Recall: r, FMeasure: f}
}
