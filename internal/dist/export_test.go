package dist

// PairsAt is Pairs at a forced split k, for the external tests and
// benchmarks that check or time every split, not only the planned one.
var PairsAt = pairsAt

// PlanSplit is the split Pairs would choose.
var PlanSplit = planSplit
