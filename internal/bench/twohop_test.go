package bench

import (
	"os"
	"strconv"
	"testing"
	"time"

	"regraph/internal/dist"
	"regraph/internal/gen"
)

// TestTwoHopBuildWallClock is the CI guard against label-construction
// regressions: building the 2-hop index for the smoke-scale YouTube
// graph must finish within REGRAPH_TWOHOP_BUILD_BUDGET seconds
// (default 60 — generous locally, tightened by ci.yml). Pruned landmark
// labeling is near-linear on these hub-skewed graphs; an accidental
// return to quadratic label growth blows this budget immediately.
func TestTwoHopBuildWallClock(t *testing.T) {
	budget := 60.0
	if v := os.Getenv("REGRAPH_TWOHOP_BUILD_BUDGET"); v != "" {
		f, err := strconv.ParseFloat(v, 64)
		if err != nil || f <= 0 {
			t.Fatalf("bad REGRAPH_TWOHOP_BUILD_BUDGET %q: %v", v, err)
		}
		budget = f
	}
	cfg, err := DefaultConfig()
	if err != nil {
		t.Fatal(err)
	}
	g := gen.YouTube(cfg.Seed, cfg.YouTubeScale)
	t0 := time.Now()
	th := dist.NewTwoHop(g)
	elapsed := time.Since(t0)
	t.Logf("built %d-node index (%d B, %d entries) in %v",
		g.NumNodes(), th.Size(), th.Entries(), elapsed)
	if elapsed.Seconds() > budget {
		t.Fatalf("label build took %v, budget %.1fs", elapsed, budget)
	}
}
