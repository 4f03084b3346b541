package engine

import (
	"fmt"
	"time"

	"regraph/internal/graph"
	"regraph/internal/wal"
)

// RecoverInfo describes a completed Recover: where replay started (the
// snapshot generation, 0 when recovery began from the seed graph), how
// much log it consumed, the generation it finished at, and how long the
// whole thing took (served as recovery_ms in /v1/stats).
type RecoverInfo struct {
	SnapshotGen uint64
	Batches     int
	Ops         int
	LastGen     uint64
	Duration    time.Duration
}

// Recover builds an engine from a write-ahead log: it loads the log's
// latest snapshot if one exists (otherwise seed — the graph the very
// first run started from), replays every logged batch after it through
// the ordinary Apply path, and only then installs w so subsequent
// commits append to the same log.
//
// Replaying through Apply is the whole correctness argument: a logged
// batch re-runs the exact code that committed it originally — the same
// per-op validation, the same name resolution against the same
// predecessor state, the same failure acks — so the recovered engine is
// oracle-identical to the original by construction, not by a separate
// replay interpreter that could drift. The log's generation numbers
// double as the cross-check: every replayed batch must commit as
// exactly the generation it was logged under, or recovery fails loudly
// instead of continuing from a diverged state. The one step replay
// skips is the per-batch rebuild of the CSR layers and the backend: the
// intermediate generations have no reader, so both are built once, for
// the generation recovery ends at.
//
// opts must not set WAL (Recover installs w itself, after replay, so
// replayed batches are not re-appended). A torn log tail — the
// expected crash artifact — was already truncated by wal.Open; Recover
// only ever sees intact records.
func Recover(w *wal.WAL, seed *graph.Graph, opts Options) (*Engine, RecoverInfo, error) {
	if opts.WAL != nil {
		return nil, RecoverInfo{}, fmt.Errorf("%w: Recover installs the WAL itself; leave Options.WAL nil", ErrOptions)
	}
	start := time.Now()
	var info RecoverInfo

	g := seed
	if sg, sgen, ok, err := w.LoadSnapshot(); err != nil {
		return nil, info, fmt.Errorf("engine: recover: %w", err)
	} else if ok {
		g, info.SnapshotGen = sg, sgen
	}
	if g == nil {
		g = graph.New()
	}

	e, err := newEngine(g, opts)
	if err != nil {
		return nil, info, err
	}
	// The snapshot captures the graph at SnapshotGen, not generation 0.
	// Nothing else has the engine yet, so setting the published state's
	// generation directly is race-free.
	e.cur.Load().gen = info.SnapshotGen

	if err := w.Replay(info.SnapshotGen, func(rec wal.Record) error {
		cm, err := e.apply(rec.Ops, false)
		if err != nil {
			return fmt.Errorf("engine: recover gen %d: %w", rec.Gen, err)
		}
		if cm.Gen != rec.Gen {
			return fmt.Errorf("engine: recover: batch logged as gen %d replayed as gen %d", rec.Gen, cm.Gen)
		}
		info.Batches++
		info.Ops += len(rec.Ops)
		return nil
	}); err != nil {
		return nil, info, err
	}
	// Neither newEngine nor replay built CSR layers or a backend: build
	// the ones the final generation serves with (and resolve "auto" on
	// it). Still no reader, so again race-free.
	st := e.cur.Load()
	st.be = e.buildBackend(st.g)

	e.wal = w
	info.LastGen = e.Generation()
	info.Duration = time.Since(start)
	e.recovered = info
	return e, info, nil
}

// WAL returns the engine's write-ahead log (nil when the engine is not
// durable).
func (e *Engine) WAL() *wal.WAL { return e.wal }

// Recovered returns the RecoverInfo of the Recover call that built this
// engine; the zero value for engines built by New.
func (e *Engine) Recovered() RecoverInfo { return e.recovered }

// CompactWAL snapshots the current generation into the engine's log and
// truncates the history it supersedes (wal.Compact). It holds the write
// mutex for the duration, so commits wait — readers do not. A no-op on
// a non-durable engine or at generation 0 (there is nothing to compact
// and generation 0 has no snapshot representation).
func (e *Engine) CompactWAL() error {
	if e.wal == nil {
		return nil
	}
	e.writeMu.Lock()
	defer e.writeMu.Unlock()
	st := e.cur.Load()
	if st.gen == 0 {
		return nil
	}
	return e.wal.Compact(st.g, st.gen)
}
