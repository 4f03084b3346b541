package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
)

// inputs is everything one run feeds the system under test, generated
// before any process is launched.
type inputs struct {
	graph     *dataGraph
	graphPath string
	pool      [][]byte // request lines without id
	seq       []int32  // template index per request, in send order
	oracle    []answer // per template, on the generation-0 graph; nil for a wal workload
	batches   [][]mutOp
	digests   map[string]string // graph, pool, sequence
}

// prepare generates w's inputs at the given size (1 = as defined; the
// smoke test uses 0.1) into dir. The graph and pool depend only on the
// benchmark's constants; seed fixes the request order.
func prepare(w *spec, size float64, seed int64, dir, cacheDir string) (*inputs, error) {
	in := &inputs{digests: map[string]string{}}
	if w.youtube > 0 {
		in.graph = youTubeGraph(w.youtube * size)
	} else {
		in.graph = syntheticGraph(int(float64(w.nodes)*size), int(float64(w.edges)*size))
	}
	tsv, err := graphTSV(in.graph)
	if err != nil {
		return nil, err
	}
	in.graphPath = filepath.Join(dir, "graph.tsv")
	if err := os.WriteFile(in.graphPath, tsv, 0o644); err != nil {
		return nil, err
	}
	in.digests["graph"] = sha(tsv)

	n := int(float64(w.pool.size) * size)
	if n < 8 {
		n = 8
	}
	r := rand.New(rand.NewSource(inputSeed + 2))
	seen := map[string]bool{}
	for tries := 0; len(in.pool) < n; tries++ {
		if tries > 50*n {
			return nil, fmt.Errorf("%s: the generator yields fewer than %d distinct templates", w.name, n)
		}
		k := w.pool.kinds[len(in.pool)%len(w.pool.kinds)]
		var line []byte
		if k.pq {
			line = pqLine(in.graph, r)
		} else {
			atoms := k.atoms
			if atoms == 0 {
				atoms = 2 + r.Intn(2)
			}
			line = rqLine(in.graph, k.preds, atoms, k.count, r)
		}
		if !seen[string(line)] {
			seen[string(line)] = true
			in.pool = append(in.pool, line)
		}
	}
	poolText := bytes.Join(in.pool, []byte("\n"))
	if err := os.WriteFile(filepath.Join(dir, "pool.ndjson"), poolText, 0o644); err != nil {
		return nil, err
	}
	in.digests["pool"] = sha(poolText)
	if size == 1 {
		for _, pin := range [][2]string{{"graph", w.graphSHA}, {"pool", w.poolSHA}} {
			if pin[1] != "" && pin[1] != in.digests[pin[0]] {
				return nil, fmt.Errorf("%s: %s digest %s differs from the pinned %s: the generator drifted, so results are not comparable with the baseline",
					w.name, pin[0], in.digests[pin[0]], pin[1])
			}
		}
	}

	// The order of requests: whole permutations of the pool, one after
	// another, so every stretch of len(pool) requests covers each
	// template about once and two seeds do the same total work.
	sr := rand.New(rand.NewSource(seed))
	for len(in.seq) < 1<<16 {
		for _, i := range sr.Perm(n) {
			in.seq = append(in.seq, int32(i))
		}
	}
	sb := make([]byte, 4*len(in.seq))
	for i, v := range in.seq {
		binary.LittleEndian.PutUint32(sb[4*i:], uint32(v))
	}
	in.digests["sequence"] = sha(sb)

	if w.wal {
		in.batches = mutationBatches(in.graph.NumNodes(), maxBatches, batchOps)
		return in, nil
	}
	in.oracle, err = cachedOracle(in, filepath.Join(cacheDir,
		"oracle-"+in.digests["graph"][:12]+"-"+in.digests["pool"][:12]+".json"))
	return in, err
}

func sha(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])
}

// cachedOracle computes every template's expected answer, or reads the
// answers a previous run in this checkout stored under the same input
// digests. The plain-graph evaluation of a large pool takes longer
// than a whole measured run, and its result depends on nothing else.
func cachedOracle(in *inputs, path string) ([]answer, error) {
	if b, err := os.ReadFile(path); err == nil {
		var as []answer
		if json.Unmarshal(b, &as) == nil && len(as) == len(in.pool) {
			return as, nil
		}
	}
	as, err := oracleAnswers(in.graph, in.pool)
	if err != nil {
		return nil, err
	}
	b, err := json.Marshal(as)
	if err != nil {
		return nil, err
	}
	tmp := fmt.Sprintf("%s.%d.tmp", path, os.Getpid())
	if err := os.WriteFile(tmp, b, 0o644); err != nil {
		return nil, err
	}
	return as, os.Rename(tmp, path)
}

// oracleAnswers evaluates the pool on the plain graph, on both cores.
func oracleAnswers(g *dataGraph, pool [][]byte) ([]answer, error) {
	freeze(g)
	as := make([]answer, len(pool))
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for k := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := k; i < len(pool); i += len(errs) {
				a, err := oracleAnswer(g, pool[i])
				if err != nil {
					errs[k] = fmt.Errorf("oracle: template %d: %w", i, err)
					return
				}
				as[i] = a
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return as, nil
}
