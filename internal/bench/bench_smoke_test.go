package bench

import (
	"fmt"
	"strings"
	"testing"
)

// tinyEnv keeps smoke tests fast: minute graph scales, one query per
// point.
func tinyEnv() *Env {
	return NewEnv(Config{
		Seed:            1,
		YouTubeScale:    0.03,
		SyntheticScale:  0.03,
		QueriesPerPoint: 1,
		CacheSize:       1024,
	})
}

// TestAllDriversRun smoke-tests every experiment driver end to end: each
// must produce a table with its declared series populated in every row.
func TestAllDriversRun(t *testing.T) {
	env := tinyEnv()
	for _, d := range All() {
		d := d
		t.Run(d.Name, func(t *testing.T) {
			tab := d.Run(env)
			if tab == nil || len(tab.Rows) == 0 {
				t.Fatalf("%s produced no rows", d.Name)
			}
			if tab.ID == "" || tab.XLabel == "" {
				t.Errorf("%s missing ID or XLabel", d.Name)
			}
			for _, row := range tab.Rows {
				for _, s := range tab.Series {
					if _, ok := row.Values[s]; !ok {
						t.Errorf("%s row %q missing series %q", d.Name, row.Label, s)
					}
				}
			}
			out := tab.Format()
			if !strings.Contains(out, tab.ID) {
				t.Errorf("Format() does not include the table ID")
			}
		})
	}
}

func TestTableFormat(t *testing.T) {
	tab := &Table{
		ID: "Fig. X", Title: "demo", XLabel: "x", Unit: "s",
		Series: []string{"A", "B"},
	}
	tab.Add("1", map[string]float64{"A": 0.5})
	out := tab.Format()
	if !strings.Contains(out, "Fig. X — demo [s]") {
		t.Errorf("header missing: %q", out)
	}
	if !strings.Contains(out, "-") {
		t.Errorf("missing value should render as '-': %q", out)
	}
}

func TestNamesSorted(t *testing.T) {
	names := Names()
	if len(names) != len(All()) {
		t.Fatalf("Names() has %d entries, All() has %d", len(names), len(All()))
	}
	for i := 1; i < len(names); i++ {
		if names[i] < names[i-1] {
			t.Errorf("Names() not sorted at %d: %q < %q", i, names[i], names[i-1])
		}
	}
}

func TestDefaultConfigEnvOverride(t *testing.T) {
	t.Setenv("REGRAPH_BENCH_SCALE", "0.5")
	t.Setenv("REGRAPH_BENCH_QUERIES", "7")
	cfg, err := DefaultConfig()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.YouTubeScale != 0.5 || cfg.SyntheticScale != 0.5 {
		t.Errorf("scale override not applied: %+v", cfg)
	}
	if cfg.QueriesPerPoint != 7 {
		t.Errorf("queries override not applied: %+v", cfg)
	}

	// A malformed value must fail loudly, naming the variable and the
	// value, instead of silently running at the default scale.
	for _, tc := range []struct{ name, value string }{
		{"REGRAPH_BENCH_SCALE", "0,05"},
		{"REGRAPH_BENCH_SCALE", "abc"},
		{"REGRAPH_BENCH_SCALE", "-1"},
		{"REGRAPH_BENCH_SCALE", "0"},
		{"REGRAPH_BENCH_SCALE", "NaN"},
		{"REGRAPH_BENCH_SCALE", "+Inf"},
		{"REGRAPH_BENCH_QUERIES", "abc"},
		{"REGRAPH_BENCH_QUERIES", "-1"},
		{"REGRAPH_BENCH_QUERIES", "0"},
		{"REGRAPH_BENCH_QUERIES", "1.5"},
	} {
		t.Run(tc.name+"="+tc.value, func(t *testing.T) {
			t.Setenv("REGRAPH_BENCH_SCALE", "0.5")
			t.Setenv("REGRAPH_BENCH_QUERIES", "7")
			t.Setenv(tc.name, tc.value)
			_, err := DefaultConfig()
			if err == nil {
				t.Fatalf("%s=%q accepted", tc.name, tc.value)
			}
			if msg := err.Error(); !strings.Contains(msg, tc.name) || !strings.Contains(msg, tc.value) {
				t.Errorf("error %q does not name %s=%q", msg, tc.name, tc.value)
			}
		})
	}
}

// TestFig9bShape pins the deterministic half of Fig. 9(b): JoinMatchM's
// answers are the truth, so it scores 1 on every row; neither baseline
// beats it; and SubIso, which cannot map an edge to a path, loses recall
// on at least one row.
func TestFig9bShape(t *testing.T) {
	tab := Fig9b(tinyEnv())
	subIsoLoses := false
	for _, row := range tab.Rows {
		join := row.Values["JoinMatchM"]
		if join != 1 {
			t.Errorf("row %s: JoinMatchM = %v, want 1", row.Label, join)
		}
		for _, s := range []string{"Match", "SubIso"} {
			if v := row.Values[s]; v > join {
				t.Errorf("row %s: %s = %v exceeds JoinMatchM = %v", row.Label, s, v, join)
			}
		}
		if row.Values["SubIso"] < 1 {
			subIsoLoses = true
		}
	}
	if !subIsoLoses {
		t.Errorf("SubIso scored 1 on every row; the paper's loss of recall does not show:\n%s", tab.Format())
	}
}

// TestFig10aMinimizationShrinks pins the deterministic half of
// Fig. 10(a): every generated query carries redundancy by construction,
// so its minimized size is below the nominal |Vp|+|Ep| on every row.
func TestFig10aMinimizationShrinks(t *testing.T) {
	tab := Fig10a(tinyEnv())
	for _, row := range tab.Rows {
		var vp, ep int
		if _, err := fmt.Sscanf(row.Label, "(%d,%d)", &vp, &ep); err != nil {
			t.Fatalf("row label %q: %v", row.Label, err)
		}
		if got := row.Values["MinSize"]; got >= float64(vp+ep) {
			t.Errorf("row %s: MinSize = %v, want < %d", row.Label, got, vp+ep)
		}
	}
}
