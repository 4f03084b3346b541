package main

import "time"

// spec is one workload: the dataset, how the binaries are launched, the
// request pool and the frozen open-loop rate. Everything here is a
// constant of the benchmark; nothing is derived from a measurement at
// run time, so two commits are always offered the same load.
type spec struct {
	name string
	why  string

	// Dataset: a YouTube-like graph at youtube × the paper's size, or a
	// gen.Synthetic graph of nodes/edges when youtube is 0.
	youtube      float64
	nodes, edges int

	backend string // rgserve -backend
	routed  bool   // rgrouter in front of 2 × rgserve -workers 1
	wal     bool   // -wal-dir, -fsync always, a mutation stream, crash and recovery

	pool pool
	// streams is the number of query streams; rotate re-opens each this
	// often (see load.Config.Rotate).
	streams int
	rotate  time.Duration

	// rate is the open-loop arrival rate in requests per second: a round
	// number near a fifth of the median closed-loop throughput_qps
	// measured when the workload was defined (the two matrix workloads
	// share the routed one's). Frozen; see README, "rate-freezing rule".
	rate float64
	// limitMS is the latency limit slo_miss_share counts against.
	limitMS float64

	// traceN is how many of the run's first requests the traced pass
	// replays up the ladder.
	traceN int

	// graphSHA and poolSHA pin the full-size inputs (SHA-256 of the
	// graph TSV and of the newline-joined template pool).
	graphSHA, poolSHA string
}

// pool describes the request templates of a workload. Template i is
// kind i%len(kinds).
type pool struct {
	size  int
	kinds []tmplKind
}

type tmplKind struct {
	pq    bool // a pattern query from the paper's generator
	preds int  // RQ: equality clauses per endpoint predicate
	atoms int  // RQ: atoms in the expression (0 = 2 or 3, drawn)
	count bool // RQ: count-only
}

// window is the number of unanswered requests each closed-loop stream
// keeps; batchOps and maxBatches shape the mutation stream.
const (
	window     = 32
	batchOps   = 64
	maxBatches = 60
)

var workloads = []spec{
	{
		name:    "rq-matrix-direct",
		why:     "O(1) matrix lookups and memo hits: wire, server and engine session do nearly all the work, evaluators almost none",
		youtube: 0.5, backend: "matrix",
		pool:    pool{size: 64, kinds: []tmplKind{{preds: 3, atoms: 1, count: true}}},
		streams: 2, rate: 5000, limitMS: 5, traceN: 2000,
		graphSHA: "7f42887aad4ebf1bb57060648fc3d29c346928aefed646bc12549a9a0b6ce78a",
		poolSHA:  "8028f9af07227ed33a69b1d1633228b185ee6463545920a82708e9f5091ad766",
	},
	{
		name:    "rq-matrix-routed",
		why:     "the same graph, pool and rate through rgrouter and two one-worker replicas: the difference from the direct run is the router hop",
		youtube: 0.5, backend: "matrix", routed: true,
		pool:    pool{size: 64, kinds: []tmplKind{{preds: 3, atoms: 1, count: true}}},
		streams: 2, rate: 5000, limitMS: 5, traceN: 2000,
		graphSHA: "7f42887aad4ebf1bb57060648fc3d29c346928aefed646bc12549a9a0b6ce78a",
		poolSHA:  "8028f9af07227ed33a69b1d1633228b185ee6463545920a82708e9f5091ad766",
	},
	{
		name:    "pq-cache-eval",
		why:     "matrix-unbuildable graph, 1,024 distinct templates over a 65,536-entry cache: dist, candidx, evaluators and large answers dominate, per-line overhead is small",
		youtube: 2.0, backend: "cache",
		pool: pool{size: 1024, kinds: []tmplKind{
			{preds: 2}, {preds: 2}, {pq: true},
		}},
		streams: 2, rate: 200, limitMS: 100, traceN: 300,
		graphSHA: "06738567714b73942a1584719a0cec246333cbb35efe0ab6fc363339d5d16872",
		poolSHA:  "6cad4467534d72cc3e36414cb7ec4c458d5c63aa12aade4dba751ade99621bfa",
	},
	{
		name:  "mixed-twohop-wal",
		why:   "reads beside one 64-op write batch per second on a durable 2-hop server: commit cost, label rebuilds and crash recovery share the layers reads use",
		nodes: 4000, edges: 16000, backend: "twohop", wal: true,
		pool: pool{size: 256, kinds: []tmplKind{
			{preds: 2, atoms: 1, count: true}, {preds: 2},
		}},
		streams: 1, rotate: time.Second, rate: 200, limitMS: 100, traceN: 1000,
		graphSHA: "476b4d08614dcb77c59196c2cc3422f68ed4aac55aeceba7a6ddc870ebc94c49",
		poolSHA:  "d4296c8be35194717d2b44eed013cf6555b7eb74e27d092e67a6b1f98d201e17",
	},
}

func findWorkload(name string) *spec {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}
