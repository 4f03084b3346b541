package predicate

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"testing"
	"testing/quick"
)

func TestParseAndString(t *testing.T) {
	tests := []struct {
		in   string
		want string
	}{
		{"job = doctor", "job = doctor"},
		{"job=doctor, age>300", "job = doctor, age > 300"},
		{`cat = "Film & Animation", com <= 20`, `cat = "Film & Animation", com <= 20`},
		{"a != 3, b >= 2, c < 10", "a != 3, b >= 2, c < 10"},
		{"*", "*"},
		{"", "*"},
	}
	for _, tc := range tests {
		p, err := Parse(tc.in)
		if err != nil {
			t.Fatalf("Parse(%q): %v", tc.in, err)
		}
		if got := p.String(); got != tc.want {
			t.Errorf("Parse(%q).String() = %q, want %q", tc.in, got, tc.want)
		}
		// Round trip.
		again, err := Parse(p.String())
		if err != nil {
			t.Fatalf("round trip Parse(%q): %v", p.String(), err)
		}
		if again.String() != p.String() {
			t.Errorf("round trip mismatch: %q vs %q", again.String(), p.String())
		}
	}
}

func TestParseErrors(t *testing.T) {
	// "job <=" / "job >=" pin the operator scan: a two-byte operator with
	// no value must not re-match as the one-byte prefix with value "=".
	for _, in := range []string{"job", "= doctor", "job =", "job ~ doctor", "a = 1, , b = 2",
		"job <=", "job >=", "job !=", "a b = c"} {
		if _, err := Parse(in); err == nil {
			t.Errorf("Parse(%q): expected error", in)
		}
	}
}

func TestEval(t *testing.T) {
	attrs := map[string]string{
		"job": "doctor", "age": "350", "sp": "cloning", "com": "25",
	}
	tests := []struct {
		pred string
		want bool
	}{
		{"job = doctor", true},
		{"job = biologist", false},
		{"age > 300", true},
		{"age > 400", false},
		{"age >= 350", true},
		{"age <= 350", true},
		{"age < 350", false},
		{"age != 350", false},
		{"age != 351", true},
		{"job = doctor, age > 300", true},
		{"job = doctor, age > 400", false},
		{"missing = 1", false}, // absent attribute never matches
		{"*", true},
	}
	for _, tc := range tests {
		p := MustParse(tc.pred)
		if got := p.Eval(attrs); got != tc.want {
			t.Errorf("%q.Eval = %v, want %v", tc.pred, got, tc.want)
		}
	}
}

func TestNumericVsLexicographic(t *testing.T) {
	// "9" < "10" numerically but "10" < "9" lexicographically.
	if !MustParse("x < 10").Eval(map[string]string{"x": "9"}) {
		t.Error("numeric comparison should apply: 9 < 10")
	}
	if MustParse("x < bb").Eval(map[string]string{"x": "cc"}) {
		t.Error("lexicographic: cc < bb should be false")
	}
	if !MustParse("x < bb").Eval(map[string]string{"x": "aa"}) {
		t.Error("lexicographic: aa < bb should be true")
	}
}

func TestSatisfiable(t *testing.T) {
	tests := []struct {
		pred string
		want bool
	}{
		{"*", true},
		{"a = 1", true},
		{"a = 1, a = 2", false},
		{"a = 1, a = 1", true},
		{"a > 5, a < 3", false},
		{"a > 5, a < 6", true},
		{"a >= 5, a <= 5", true},
		{"a > 5, a <= 5", false},
		{"a >= 5, a <= 5, a != 5", false},
		{"a = 5, a != 5", false},
		{"a = 5, a > 4", true},
		{"a = 5, a > 5", false},
		{"a = 5, b = 1, b = 2", false},
	}
	for _, tc := range tests {
		if got := MustParse(tc.pred).Satisfiable(); got != tc.want {
			t.Errorf("%q.Satisfiable = %v, want %v", tc.pred, got, tc.want)
		}
	}
}

func TestImplies(t *testing.T) {
	tests := []struct {
		p, q string
		want bool
	}{
		{"a = 5", "a = 5", true},
		{"a = 5", "a >= 5", true},
		{"a = 5", "a > 4", true},
		{"a = 5", "a > 5", false},
		{"a = 5", "a != 6", true},
		{"a = 5", "a != 5", false},
		{"a > 5", "a > 4", true},
		{"a > 5", "a >= 5", true},
		{"a > 5", "a > 5", true},
		{"a > 5", "a > 6", false},
		{"a >= 5", "a > 4", true},
		{"a >= 5", "a > 5", false},
		{"a < 3", "a < 4", true},
		{"a < 3", "a <= 3", true},
		{"a <= 3", "a < 3", false},
		{"a < 3", "a != 7", true},
		{"a > 3", "a != 2", true},
		{"a != 2", "a != 2", true},
		{"a != 2", "a != 3", false},
		{"a >= 5, a <= 5", "a = 5", true},
		{"a > 4, a < 6", "a = 5", false}, // dense domain: not forced
		{"a = 5, b = 1", "a = 5", true},
		{"a = 5", "a = 5, b = 1", false},
		{"*", "a = 1", false},
		{"a = 1", "*", true},
		{"a = 1, a = 2", "z = 9", true}, // unsat implies everything
		{"job = doctor, age > 300", "job = doctor", true},
		{"job = doctor", "job != nurse", true},
	}
	for _, tc := range tests {
		p, q := MustParse(tc.p), MustParse(tc.q)
		if got := p.Implies(q); got != tc.want {
			t.Errorf("Implies(%q, %q) = %v, want %v", tc.p, tc.q, got, tc.want)
		}
	}
}

func TestEquivalent(t *testing.T) {
	tests := []struct {
		p, q string
		want bool
	}{
		{"a = 5", "a = 5", true},
		{"a = 5, b = 1", "b = 1, a = 5", true},
		{"a >= 5, a <= 5", "a = 5", true},
		{"a = 5", "a >= 5", false},
		{"*", "*", true},
	}
	for _, tc := range tests {
		if got := Equivalent(MustParse(tc.p), MustParse(tc.q)); got != tc.want {
			t.Errorf("Equivalent(%q, %q) = %v, want %v", tc.p, tc.q, got, tc.want)
		}
	}
}

func TestAnd(t *testing.T) {
	p := And(MustParse("a = 1"), MustParse("b = 2"))
	if !p.Eval(map[string]string{"a": "1", "b": "2"}) {
		t.Error("And should require both conjuncts")
	}
	if p.Eval(map[string]string{"a": "1"}) {
		t.Error("And missing second conjunct should fail")
	}
}

func TestAttrs(t *testing.T) {
	p := MustParse("b = 1, a = 2, b > 0")
	got := p.Attrs()
	if len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Errorf("Attrs = %v, want [a b]", got)
	}
}

// ---- property tests -----------------------------------------------------

// genPred builds a random predicate over attributes {x, y} with small
// integer constants so implication can be cross-checked by enumeration.
func genPred(r *rand.Rand) Pred {
	n := r.Intn(3) + 1
	clauses := make([]Clause, n)
	attrs := []string{"x", "y"}
	for i := range clauses {
		clauses[i] = Clause{
			Attr:  attrs[r.Intn(len(attrs))],
			Op:    Op(r.Intn(6)),
			Value: strconv.Itoa(r.Intn(6)),
		}
	}
	return New(clauses...)
}

// TestImpliesSoundOnIntegerGrid: if p.Implies(q) then every integer-grid
// point matching p matches q. (Implication over a dense domain is sound
// for any subdomain.)
func TestImpliesSoundOnIntegerGrid(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		p, q := genPred(r), genPred(r)
		if !p.Implies(q) {
			return true
		}
		for x := -1; x <= 7; x++ {
			for y := -1; y <= 7; y++ {
				attrs := map[string]string{
					"x": strconv.Itoa(x), "y": strconv.Itoa(y),
				}
				if p.Eval(attrs) && !q.Eval(attrs) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestSatisfiableSoundness: if a grid point matches p, p must be
// satisfiable; if p is reported unsatisfiable no point may match.
func TestSatisfiableSoundness(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		p := genPred(r)
		if p.Satisfiable() {
			return true
		}
		for x := -1; x <= 7; x++ {
			for y := -1; y <= 7; y++ {
				attrs := map[string]string{"x": strconv.Itoa(x), "y": strconv.Itoa(y)}
				if p.Eval(attrs) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestImpliesPreorder: implication is reflexive and transitive.
func TestImpliesPreorder(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	preds := make([]Pred, 10)
	for i := range preds {
		preds[i] = genPred(r)
	}
	for _, p := range preds {
		if !p.Implies(p) {
			t.Fatalf("Implies not reflexive for %v", p)
		}
	}
	for _, a := range preds {
		for _, b := range preds {
			for _, c := range preds {
				if a.Implies(b) && b.Implies(c) && !a.Implies(c) {
					t.Fatalf("transitivity violated: %v ⊢ %v ⊢ %v", a, b, c)
				}
			}
		}
	}
}

func TestCompare(t *testing.T) {
	tests := []struct {
		a, b string
		want int
	}{
		{"1", "2", -1},
		{"2", "1", 1},
		{"2", "2", 0},
		{"9", "10", -1},
		{"1.5", "1.25", 1},
		{"abc", "abd", -1},
		{"doctor", "doctor", 0},
		{"10", "abc", -1}, // mixed: lexicographic
	}
	for _, tc := range tests {
		if got := Compare(tc.a, tc.b); got != tc.want {
			t.Errorf("Compare(%q,%q) = %d, want %d", tc.a, tc.b, got, tc.want)
		}
	}
}

func ExamplePred_Eval() {
	p := MustParse("job = doctor, age > 300")
	fmt.Println(p.Eval(map[string]string{"job": "doctor", "age": "400"}))
	fmt.Println(p.Eval(map[string]string{"job": "doctor", "age": "200"}))
	// Output:
	// true
	// false
}

// TestParseAllocatesOnce: a predicate's clauses are slices of the input,
// so parsing one costs its clause slice and nothing else.
func TestParseAllocatesOnce(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	const in = "job = doctor, age > 30, cat != Music"
	if got := testing.AllocsPerRun(100, func() {
		if _, err := Parse(in); err != nil {
			t.Fatal(err)
		}
	}); got > 1 {
		t.Fatalf("Parse(%q): %v allocations, want at most 1", in, got)
	}
}

// TestAppendKeyCanonical: the key does not depend on clause order and
// matches a reference built with sort.Slice, including past the eight
// clauses AppendKey sorts on the stack.
func TestAppendKeyCanonical(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	attrs := []string{"a", "b", "ab"}
	values := []string{"1", "10", "x", "", "=1"}
	ref := func(cs []Clause) string {
		cs = append([]Clause(nil), cs...)
		sort.Slice(cs, func(i, j int) bool { return clauseLess(cs[i], cs[j]) })
		var b []byte
		for _, c := range cs {
			b = append(b, fmt.Sprintf("%d:%s%s%d:%s", len(c.Attr), c.Attr, c.Op, len(c.Value), c.Value)...)
		}
		return string(b)
	}
	for n := 1; n <= 12; n++ {
		cs := make([]Clause, n)
		for i := range cs {
			cs[i] = Clause{Attr: attrs[r.Intn(len(attrs))], Op: Op(r.Intn(6)), Value: values[r.Intn(len(values))]}
		}
		want := ref(cs)
		for k := 0; k < 5; k++ {
			r.Shuffle(n, func(i, j int) { cs[i], cs[j] = cs[j], cs[i] })
			if got := string(New(cs...).AppendKey([]byte("p:"))); got != "p:"+want {
				t.Fatalf("%d clauses: key %q, want %q", n, got, "p:"+want)
			}
		}
	}
	if got := string(Pred{}.AppendKey(nil)); got != "*" {
		t.Fatalf("always-true key %q, want \"*\"", got)
	}
}
