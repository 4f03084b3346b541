package engine_test

import (
	"bufio"
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"regraph/internal/dist"
	"regraph/internal/engine"
	"regraph/internal/gen"
	"regraph/internal/graph"
	"regraph/internal/mutate"
	"regraph/internal/wal"
)

// crashSeedGraph is the deterministic starting graph both the crash
// child and the parent's oracle replay build from.
func crashSeedGraph() *graph.Graph {
	return gen.Synthetic(42, 200, 800, 3, gen.DefaultColors)
}

// crashOpsForGen is the deterministic batch that commits as generation
// g in the crash harness: a guaranteed-applying unique add_node (so
// every batch publishes), a set_attr on a seed node, an add_edge, and a
// guaranteed-failing op (unknown node) so failed-op acks are part of
// every replayed record.
func crashOpsForGen(g uint64) []mutate.Op {
	return []mutate.Op{
		{Verb: mutate.VerbAddNode, Node: fmt.Sprintf("crash-%d", g),
			Attrs: map[string]string{"a0": fmt.Sprint(g % 11)}},
		{Verb: mutate.VerbSetAttr, Node: fmt.Sprintf("n%d", g%200),
			Attrs: map[string]string{"a1": fmt.Sprint(g % 7)}},
		{Verb: mutate.VerbAddEdge, From: fmt.Sprintf("n%d", g%200),
			To: fmt.Sprintf("n%d", (g*31+7)%200), Color: gen.DefaultColors[g%uint64(len(gen.DefaultColors))]},
		{Verb: mutate.VerbSetAttr, Node: "no-such-node-ever",
			Attrs: map[string]string{"a0": "x"}},
	}
}

// oracleAt replays batches 1..gen through a fresh non-durable engine —
// the ground truth a recovered engine must match bit-identically.
func oracleAt(t *testing.T, gen uint64) *graph.Graph {
	t.Helper()
	e := engine.MustNew(crashSeedGraph(), engine.Options{Workers: 1, BackendKind: "cache"})
	for g := uint64(1); g <= gen; g++ {
		cm, err := e.Apply(crashOpsForGen(g))
		if err != nil {
			t.Fatalf("oracle apply gen %d: %v", g, err)
		}
		if cm.Gen != g {
			t.Fatalf("oracle committed gen %d as %d", g, cm.Gen)
		}
	}
	return e.Graph()
}

func graphTSV(t *testing.T, g *graph.Graph) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := g.WriteTSV(&b); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// TestReplayEquivalence is the property test: for random op sequences —
// including batches whose ops all fail (never logged, never a
// generation) and partially failing batches — recovery from the log
// reconstructs an engine whose graph and generation are identical to
// the one that wrote it.
func TestReplayEquivalence(t *testing.T) {
	for trial := 0; trial < 8; trial++ {
		trial := trial
		t.Run(fmt.Sprintf("trial%d", trial), func(t *testing.T) {
			t.Parallel()
			r := rand.New(rand.NewSource(int64(1000 + trial)))
			dir := t.TempDir()
			w, err := wal.Open(wal.Options{Dir: dir, Fsync: wal.FsyncNone, SegmentBytes: 4 << 10})
			if err != nil {
				t.Fatal(err)
			}
			seed := gen.Synthetic(int64(trial), 100, 400, 3, gen.DefaultColors)
			e, _, err := engine.Recover(w, seed, engine.Options{Workers: 1, BackendKind: "cache"})
			if err != nil {
				t.Fatal(err)
			}

			names := []string{}
			for i := 0; i < 100; i++ {
				names = append(names, fmt.Sprintf("n%d", i))
			}
			pick := func() string { return names[r.Intn(len(names))] }
			next := 0
			for b := 0; b < 60; b++ {
				var ops []mutate.Op
				if r.Intn(6) == 0 {
					// An all-fail batch: unknown nodes only. Publishes nothing,
					// must be absent from the log and invisible to recovery.
					ops = []mutate.Op{
						{Verb: mutate.VerbSetAttr, Node: "ghost", Attrs: map[string]string{"a": "1"}},
						{Verb: mutate.VerbAddEdge, From: "ghost", To: "phantom", Color: "red"},
					}
				} else {
					for i, k := 0, 1+r.Intn(6); i < k; i++ {
						switch r.Intn(5) {
						case 0:
							nm := fmt.Sprintf("p%d", next)
							next++
							ops = append(ops, mutate.Op{Verb: mutate.VerbAddNode, Node: nm,
								Attrs: map[string]string{"a0": fmt.Sprint(r.Intn(5))}})
							names = append(names, nm)
						case 1:
							ops = append(ops, mutate.Op{Verb: mutate.VerbSetAttr, Node: pick(),
								Attrs: map[string]string{fmt.Sprintf("a%d", r.Intn(3)): fmt.Sprint(r.Intn(9))}})
						case 2:
							// Mostly fails: random pairs rarely share an edge.
							ops = append(ops, mutate.Op{Verb: mutate.VerbRemoveEdge, From: pick(), To: pick(),
								Color: gen.DefaultColors[r.Intn(len(gen.DefaultColors))]})
						default:
							ops = append(ops, mutate.Op{Verb: mutate.VerbAddEdge, From: pick(), To: pick(),
								Color: gen.DefaultColors[r.Intn(len(gen.DefaultColors))]})
						}
					}
				}
				if _, err := e.Apply(ops); err != nil {
					t.Fatalf("apply batch %d: %v", b, err)
				}
			}
			wantGen := e.Generation()
			wantTSV := graphTSV(t, e.Graph())
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}

			w2, err := wal.Open(wal.Options{Dir: dir, Fsync: wal.FsyncNone, SegmentBytes: 4 << 10})
			if err != nil {
				t.Fatal(err)
			}
			defer w2.Close()
			seed2 := gen.Synthetic(int64(trial), 100, 400, 3, gen.DefaultColors)
			e2, info, err := engine.Recover(w2, seed2, engine.Options{Workers: 1, BackendKind: "cache"})
			if err != nil {
				t.Fatalf("recover: %v", err)
			}
			if e2.Generation() != wantGen {
				t.Fatalf("recovered generation %d, want %d (info %+v)", e2.Generation(), wantGen, info)
			}
			if got := graphTSV(t, e2.Graph()); !bytes.Equal(got, wantTSV) {
				t.Fatalf("recovered graph differs from original (gen %d)", wantGen)
			}
			// The recovered engine keeps committing durably on the same log.
			if _, err := e2.Apply([]mutate.Op{{Verb: mutate.VerbAddNode, Node: "after-recovery"}}); err != nil {
				t.Fatalf("apply after recovery: %v", err)
			}
			if w2.LastGen() != e2.Generation() {
				t.Fatalf("log gen %d lags engine gen %d after post-recovery apply", w2.LastGen(), e2.Generation())
			}
		})
	}
}

// TestRecoverCompactedLog pins snapshot+tail recovery: compact
// mid-history, keep committing, recover — the snapshot supplies the
// prefix, replay only the tail, and the result is still bit-identical.
func TestRecoverCompactedLog(t *testing.T) {
	dir := t.TempDir()
	w, err := wal.Open(wal.Options{Dir: dir, Fsync: wal.FsyncNone, SegmentBytes: 2 << 10})
	if err != nil {
		t.Fatal(err)
	}
	e, _, err := engine.Recover(w, crashSeedGraph(), engine.Options{Workers: 1, BackendKind: "cache"})
	if err != nil {
		t.Fatal(err)
	}
	for g := uint64(1); g <= 20; g++ {
		if _, err := e.Apply(crashOpsForGen(g)); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.CompactWAL(); err != nil {
		t.Fatalf("compact: %v", err)
	}
	for g := uint64(21); g <= 30; g++ {
		if _, err := e.Apply(crashOpsForGen(g)); err != nil {
			t.Fatal(err)
		}
	}
	wantTSV := graphTSV(t, e.Graph())
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	w2, err := wal.Open(wal.Options{Dir: dir, Fsync: wal.FsyncNone, SegmentBytes: 2 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	// Recover with a nil seed: the snapshot must be self-sufficient.
	e2, info, err := engine.Recover(w2, nil, engine.Options{Workers: 1, BackendKind: "cache"})
	if err != nil {
		t.Fatalf("recover from compacted log: %v", err)
	}
	if info.SnapshotGen != 20 || info.Batches != 10 {
		t.Fatalf("recovery info %+v, want snapshot 20 + 10 replayed", info)
	}
	if e2.Generation() != 30 {
		t.Fatalf("recovered generation %d, want 30", e2.Generation())
	}
	if got := graphTSV(t, e2.Graph()); !bytes.Equal(got, wantTSV) {
		t.Fatal("snapshot+tail recovery is not bit-identical")
	}
}

// TestRecoverBuildsFinalBackend: replay skips the per-batch backend
// rebuilds, so the one backend a recovered engine serves with must be
// built for the graph it recovered to — from a virgin log (the seed)
// and after replayed batches — for every kind. "auto" resolves on that
// graph too: its budget fits the seed's matrix exactly, and the
// replayed batches add nodes, so the recovered graph's matrix does not
// fit.
func TestRecoverBuildsFinalBackend(t *testing.T) {
	for _, kind := range []string{"matrix", "twohop", "cache", "auto"} {
		t.Run(kind, func(t *testing.T) {
			dir := t.TempDir()
			opts := engine.Options{Workers: 1, BackendKind: kind}
			seedKind := kind
			if kind == "auto" {
				opts.MemoryBudget = dist.PredictMatrixBytes(crashSeedGraph())
				seedKind = "matrix"
			}
			w, err := wal.Open(wal.Options{Dir: dir, Fsync: wal.FsyncNone})
			if err != nil {
				t.Fatal(err)
			}
			e, _, err := engine.Recover(w, crashSeedGraph(), opts)
			if err != nil {
				t.Fatal(err)
			}
			checkBackendMatchesGraph(t, e, seedKind)
			for g := uint64(1); g <= 12; g++ {
				if _, err := e.Apply(crashOpsForGen(g)); err != nil {
					t.Fatal(err)
				}
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}

			w2, err := wal.Open(wal.Options{Dir: dir, Fsync: wal.FsyncNone})
			if err != nil {
				t.Fatal(err)
			}
			defer w2.Close()
			e2, info, err := engine.Recover(w2, crashSeedGraph(), opts)
			if err != nil {
				t.Fatal(err)
			}
			if info.Batches != 12 || e2.Generation() != 12 {
				t.Fatalf("recovered %+v at gen %d, want 12 batches to gen 12", info, e2.Generation())
			}
			finalKind := kind
			if kind == "auto" {
				if finalKind = e2.BackendKind(); finalKind == "matrix" {
					t.Fatal("auto picked the matrix on the seed, not on the recovered graph")
				}
			}
			checkBackendMatchesGraph(t, e2, finalKind)
		})
	}
}

// checkBackendMatchesGraph compares the engine's backend against a
// matrix built from scratch over the engine's current graph, on every
// layer from every fourth source node.
func checkBackendMatchesGraph(t *testing.T, e *engine.Engine, kind string) {
	t.Helper()
	if e.BackendKind() != kind {
		t.Fatalf("backend kind %q, want %q", e.BackendKind(), kind)
	}
	be := e.Backend()
	if be == nil {
		t.Fatal("recovered engine has no backend")
	}
	g := e.Graph()
	want := dist.NewMatrix(g)
	layers := []graph.ColorID{graph.AnyColor}
	for c := 0; c < g.NumColors(); c++ {
		layers = append(layers, graph.ColorID(c))
	}
	for _, c := range layers {
		for v1 := 0; v1 < g.NumNodes(); v1 += 4 {
			for v2 := 0; v2 < g.NumNodes(); v2++ {
				a, b := graph.NodeID(v1), graph.NodeID(v2)
				if got, w := be.Dist(c, a, b), want.Dist(c, a, b); got != w {
					t.Fatalf("gen %d layer %d: Dist(%d, %d) = %d, fresh matrix %d", e.Generation(), c, v1, v2, got, w)
				}
			}
		}
	}
}

// TestRecoverTornTailSweep truncates a real log at every byte offset
// and checks the end-to-end promise at each cut: recovery never errors,
// and the recovered graph is bit-identical to the oracle at whatever
// generation survived — i.e. a torn tail costs at most the torn
// records, never consistency.
func TestRecoverTornTailSweep(t *testing.T) {
	master := t.TempDir()
	w, err := wal.Open(wal.Options{Dir: master, Fsync: wal.FsyncNone})
	if err != nil {
		t.Fatal(err)
	}
	e, _, err := engine.Recover(w, crashSeedGraph(), engine.Options{Workers: 1, BackendKind: "cache"})
	if err != nil {
		t.Fatal(err)
	}
	const nGens = 8
	for g := uint64(1); g <= nGens; g++ {
		if _, err := e.Apply(crashOpsForGen(g)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	var segFile string
	ents, _ := os.ReadDir(master)
	for _, en := range ents {
		if strings.HasPrefix(en.Name(), "wal-") {
			segFile = en.Name()
		}
	}
	full, err := os.ReadFile(filepath.Join(master, segFile))
	if err != nil {
		t.Fatal(err)
	}

	// Oracles are expensive enough to cache per generation.
	oracles := make(map[uint64][]byte, nGens+1)
	for g := uint64(0); g <= nGens; g++ {
		oracles[g] = graphTSV(t, oracleAt(t, g))
	}

	// Sweep a stride of offsets (every byte at the tail where tears are
	// interesting, every 7th earlier) to keep runtime sane.
	for cut := 0; cut <= len(full); cut++ {
		if cut < len(full)-400 && cut%7 != 0 {
			continue
		}
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, segFile), full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		w2, err := wal.Open(wal.Options{Dir: dir, Fsync: wal.FsyncNone})
		if err != nil {
			t.Fatalf("cut=%d: wal open: %v", cut, err)
		}
		e2, _, err := engine.Recover(w2, crashSeedGraph(), engine.Options{Workers: 1, BackendKind: "cache"})
		if err != nil {
			t.Fatalf("cut=%d: recover: %v", cut, err)
		}
		g := e2.Generation()
		if g > nGens {
			t.Fatalf("cut=%d: recovered beyond the log (gen %d)", cut, g)
		}
		if got := graphTSV(t, e2.Graph()); !bytes.Equal(got, oracles[g]) {
			t.Fatalf("cut=%d: recovered graph at gen %d differs from oracle", cut, g)
		}
		w2.Close()
	}
}

// ---- kill-at-random-op crash harness --------------------------------------

const (
	crashChildEnv = "REGRAPH_WAL_CRASH_CHILD"
	crashDirEnv   = "REGRAPH_WAL_CRASH_DIR"
	crashFsyncEnv = "REGRAPH_WAL_CRASH_FSYNC"

	// crashWindow is the interval policy's sync period in the harness;
	// the parent's assertion allows interval recovery to lose acks newer
	// than a couple of windows before the kill.
	crashWindow = 25 * time.Millisecond
)

// crashChild runs inside the re-executed test binary: recover the
// engine from the (initially empty) WAL dir, then commit deterministic
// batches as fast as they go, printing "ACK <gen> <unixnano>" after
// each Apply returns — the acked prefix the parent will hold recovery
// to. It runs until the parent SIGKILLs it.
func crashChild() {
	dir := os.Getenv(crashDirEnv)
	w, err := wal.Open(wal.Options{Dir: dir, Fsync: os.Getenv(crashFsyncEnv), FsyncInterval: crashWindow})
	if err != nil {
		fmt.Printf("CHILD-ERR wal open: %v\n", err)
		os.Exit(1)
	}
	e, _, err := engine.Recover(w, crashSeedGraph(), engine.Options{Workers: 1, BackendKind: "cache"})
	if err != nil {
		fmt.Printf("CHILD-ERR recover: %v\n", err)
		os.Exit(1)
	}
	out := bufio.NewWriter(os.Stdout)
	for g := e.Generation() + 1; g < 1_000_000; g++ {
		cm, err := e.Apply(crashOpsForGen(g))
		if err != nil || cm.Gen != g {
			fmt.Printf("CHILD-ERR apply gen %d: gen=%d err=%v\n", g, cm.Gen, err)
			os.Exit(1)
		}
		// One line per committed batch, flushed immediately: an ack the
		// parent reads is an ack the harness holds recovery to.
		fmt.Fprintf(out, "ACK %d %d\n", g, time.Now().UnixNano())
		out.Flush()
	}
	os.Exit(0)
}

type crashAck struct {
	gen uint64
	at  time.Time
}

// TestCrashRecovery is the kill-at-random-op harness: a child process
// commits batches through the durable apply path and prints an ack per
// commit; the parent SIGKILLs it at a random moment mid-stream, then
// recovers from the torn log and checks the per-policy promise:
//
//   - always: every acked generation survives, and the recovered graph
//     is bit-identical to the oracle at the recovered generation (which
//     is ≥ the last acked one).
//   - none:   same prefix promise under SIGKILL — appends reached the
//     OS before the ack, and the OS survives a process kill. (What
//     "none" gives up is machine-crash durability, which a test cannot
//     exercise.)
//   - interval: acks older than two sync windows before the kill must
//     survive; the recovered prefix must still be oracle-identical.
func TestCrashRecovery(t *testing.T) {
	if os.Getenv(crashChildEnv) == "1" {
		crashChild()
		return
	}
	if testing.Short() {
		t.Skip("subprocess crash harness skipped in -short")
	}
	for _, policy := range []string{wal.FsyncAlways, wal.FsyncNone, wal.FsyncInterval} {
		policy := policy
		t.Run(policy, func(t *testing.T) {
			t.Parallel()
			r := rand.New(rand.NewSource(time.Now().UnixNano()))
			for round := 0; round < 3; round++ {
				runCrashRound(t, policy, r.Intn(40))
			}
		})
	}
}

func runCrashRound(t *testing.T, policy string, extraAcks int) {
	t.Helper()
	dir := t.TempDir()
	cmd := exec.Command(os.Args[0], "-test.run", "^TestCrashRecovery$")
	cmd.Env = append(os.Environ(),
		crashChildEnv+"=1", crashDirEnv+"="+dir, crashFsyncEnv+"="+policy)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}

	var mu sync.Mutex
	var acks []crashAck
	var childErr string
	scanDone := make(chan struct{})
	go func() {
		defer close(scanDone)
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			f := strings.Fields(sc.Text())
			if len(f) >= 1 && f[0] == "CHILD-ERR" {
				mu.Lock()
				childErr = sc.Text()
				mu.Unlock()
				return
			}
			if len(f) != 3 || f[0] != "ACK" {
				continue
			}
			g, err1 := strconv.ParseUint(f[1], 10, 64)
			ns, err2 := strconv.ParseInt(f[2], 10, 64)
			if err1 != nil || err2 != nil {
				continue
			}
			mu.Lock()
			acks = append(acks, crashAck{gen: g, at: time.Unix(0, ns)})
			mu.Unlock()
		}
	}()

	// Kill at a random point: after a base of acks plus a random extra,
	// so the SIGKILL lands at an arbitrary offset inside the commit loop
	// (and, for interval, at an arbitrary phase of the sync window).
	deadline := time.Now().Add(20 * time.Second)
	for {
		mu.Lock()
		n, cerr := len(acks), childErr
		mu.Unlock()
		if cerr != "" {
			t.Fatalf("crash child failed: %s", cerr)
		}
		if n >= 30+extraAcks {
			break
		}
		if time.Now().After(deadline) {
			cmd.Process.Kill()
			t.Fatal("crash child produced too few acks in 20s")
		}
		time.Sleep(time.Millisecond)
	}
	killAt := time.Now()
	if err := cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	cmd.Wait() // expected to be the kill signal
	<-scanDone

	mu.Lock()
	acked := append([]crashAck(nil), acks...)
	mu.Unlock()
	if len(acked) == 0 {
		t.Fatal("no acks collected")
	}
	lastAcked := acked[len(acked)-1].gen

	w, err := wal.Open(wal.Options{Dir: dir, Fsync: policy, FsyncInterval: crashWindow})
	if err != nil {
		t.Fatalf("post-crash wal open: %v", err)
	}
	defer w.Close()
	e, info, err := engine.Recover(w, crashSeedGraph(), engine.Options{Workers: 1, BackendKind: "cache"})
	if err != nil {
		t.Fatalf("post-crash recover: %v", err)
	}
	g := e.Generation()

	switch policy {
	case wal.FsyncAlways, wal.FsyncNone:
		// Strict prefix promise under SIGKILL: the append (and for
		// "always" the fsync) completed before Apply returned, so before
		// the ack was printed.
		if g < lastAcked {
			t.Fatalf("%s: recovered gen %d < last acked %d (info %+v)", policy, g, lastAcked, info)
		}
	case wal.FsyncInterval:
		var mustHave uint64
		for _, a := range acked {
			if killAt.Sub(a.at) >= 2*crashWindow {
				mustHave = a.gen
			}
		}
		if g < mustHave {
			t.Fatalf("interval: recovered gen %d < gen %d acked ≥2 windows before the kill (last acked %d)",
				g, mustHave, lastAcked)
		}
	}
	// Whatever prefix survived, it must be exactly the oracle's state at
	// that generation — bit-identical, no partial batch, no divergence.
	if got := graphTSV(t, e.Graph()); !bytes.Equal(got, graphTSV(t, oracleAt(t, g))) {
		t.Fatalf("%s: recovered graph at gen %d differs from oracle", policy, g)
	}
}
