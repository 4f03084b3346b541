package qlang_test

import (
	"bufio"
	"bytes"
	"errors"
	"runtime"
	"strings"
	"testing"

	"regraph/internal/dist"
	"regraph/internal/gen"
	"regraph/internal/pattern"
	"regraph/internal/qlang"
)

const essemblyQ2Text = `
# Example 2.3 pattern
node B  job = doctor, dsp = cloning
node C  job = biologist, sp = cloning
node D  uid = Alice001
edge B C sn
edge B D fn
edge C B fn
edge C C fa{3}
edge C D fa{2} sa{2}
`

func TestParsePattern(t *testing.T) {
	q, err := qlang.ParsePatternString(essemblyQ2Text)
	if err != nil {
		t.Fatal(err)
	}
	if q.NumNodes() != 3 || q.NumEdges() != 5 {
		t.Fatalf("parsed %d nodes, %d edges; want 3 and 5", q.NumNodes(), q.NumEdges())
	}
	// The parsed query must reproduce Example 2.3.
	g := gen.Essembly()
	mx := dist.NewMatrix(g)
	res := pattern.JoinMatch(g, q, pattern.Options{Backend: mx})
	if res.Size() != 8 {
		t.Errorf("parsed Q2 answer size = %d, want 8", res.Size())
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"bogus line here",
		"node",
		"edge A B x",              // nodes not declared
		"node A *\nedge A B x",    // B not declared
		"node A *\nedge A",        // missing fields
		"node A bad ~ pred",       // predicate syntax
		"node A *\nedge A A a{0}", // regex syntax
		"",                        // empty pattern
		"# only a comment\n\n   ", // still empty
	}
	for _, in := range cases {
		if _, err := qlang.ParsePatternString(in); err == nil {
			t.Errorf("ParsePatternString(%q): expected error", in)
		}
	}
}

func TestStarPredicate(t *testing.T) {
	q, err := qlang.ParsePatternString("node A *\nnode B\nedge A B x")
	if err != nil {
		t.Fatal(err)
	}
	if !q.Node(0).Pred.IsTrue() || !q.Node(1).Pred.IsTrue() {
		t.Error("* and empty predicates should be always-true")
	}
}

func TestRoundTrip(t *testing.T) {
	q, err := qlang.ParsePatternString(essemblyQ2Text)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := qlang.WritePattern(&buf, q); err != nil {
		t.Fatal(err)
	}
	q2, err := qlang.ParsePattern(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatalf("re-parse: %v\n%s", err, buf.String())
	}
	if q2.String() != q.String() {
		t.Errorf("round trip changed the pattern:\n%s\nvs\n%s", q.String(), q2.String())
	}
}

// TestParseLineLimit pins the scanner's line limit: a line just under
// 1 MiB still reaches the parser, a longer one fails with
// bufio.ErrTooLong.
func TestParseLineLimit(t *testing.T) {
	const limit = 1 << 20
	long := "# " + strings.Repeat("x", limit-16) + "\nnode A *\n"
	if _, err := qlang.ParsePatternString(long); err != nil {
		t.Fatalf("line of %d bytes: %v", limit-14, err)
	}
	tooLong := "# " + strings.Repeat("x", limit+16) + "\nnode A *\n"
	if _, err := qlang.ParsePatternString(tooLong); !errors.Is(err, bufio.ErrTooLong) {
		t.Fatalf("line of %d bytes: err = %v, want bufio.ErrTooLong", limit+18, err)
	}
}

// TestParseAllocatesLittle guards the served path: ParsePattern runs
// once per pq request, so it must not allocate a line buffer of the
// maximum line length up front.
func TestParseAllocatesLittle(t *testing.T) {
	const text = "node A job = doctor\nnode B job = biologist\nnode C *\nedge A B fa{2} fn\nedge B C sn+\n"
	if _, err := qlang.ParsePatternString(text); err != nil {
		t.Fatal(err)
	}
	const runs = 50
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if _, err := qlang.ParsePatternString(text); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if perParse := (after.TotalAlloc - before.TotalAlloc) / runs; perParse >= 64<<10 {
		t.Errorf("ParsePattern allocates %d bytes per 5-line pattern, want < 64 KiB", perParse)
	}
}
