// Package predicate implements the node search conditions of the paper's
// queries: conjunctions of atomic formulas "A op a" where A is an attribute
// name, a is a constant, and op is one of <, <=, =, !=, >, >=.
//
// A data-graph node v matches a predicate if, for every atomic formula
// "A op a", v carries an attribute A whose value satisfies the comparison
// (Section 2 of the paper). The package also decides satisfiability and
// implication between predicates ("u ⊢ w" in the paper, Proposition 3.3
// cases 1-2), which the containment, equivalence and minimization analyses
// are built on.
//
// Values compare numerically when both sides parse as numbers and
// lexicographically otherwise. Implication reasons over a dense value
// domain, which is sound (it never claims an implication that could fail)
// and matches the paper's case analysis.
//
// Parsing sits on the served request path, so it is allocation-light: a
// parsed predicate's names and values are slices of its input text, and
// its canonical memo key is appended into a caller's buffer (AppendKey).
package predicate

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Op is a comparison operator.
type Op int

// The six comparison operators of the paper.
const (
	Lt Op = iota // <
	Le           // <=
	Eq           // =
	Ne           // !=
	Gt           // >
	Ge           // >=
)

var opNames = [...]string{"<", "<=", "=", "!=", ">", ">="}

// String returns the operator's concrete syntax.
func (o Op) String() string {
	if o < 0 || int(o) >= len(opNames) {
		return fmt.Sprintf("Op(%d)", int(o))
	}
	return opNames[o]
}

// Clause is one atomic formula "Attr Op Value".
type Clause struct {
	Attr  string
	Op    Op
	Value string
}

// String renders the clause in the syntax accepted by Parse.
func (c Clause) String() string {
	v := c.Value
	if needsQuoting(v) {
		v = strconv.Quote(v)
	}
	return c.Attr + " " + c.Op.String() + " " + v
}

// needsQuoting reports whether a value must be rendered quoted to
// round-trip through Parse — and, just as important, through the
// line- and tab-oriented formats that embed predicates (qlang files,
// rgquery batch lines, the NDJSON wire): any whitespace or control
// character, clause-syntax metacharacters, or the empty string.
func needsQuoting(v string) bool {
	if v == "" {
		return true
	}
	for _, r := range v {
		if r <= ' ' || r == ',' || r == '"' || r == 0x7f {
			return true
		}
	}
	return false
}

// Pred is a conjunction of clauses. The zero value is the always-true
// predicate (it imposes no conditions, so every node matches it).
type Pred struct {
	clauses []Clause
}

// New builds a predicate from clauses.
func New(clauses ...Clause) Pred {
	cp := make([]Clause, len(clauses))
	copy(cp, clauses)
	return Pred{clauses: cp}
}

// Clauses returns the predicate's clauses. The slice must not be modified.
func (p Pred) Clauses() []Clause { return p.clauses }

// IsTrue reports whether the predicate is the empty (always-true)
// conjunction.
func (p Pred) IsTrue() bool { return len(p.clauses) == 0 }

// Size returns the number of atomic formulas, the |f_u| metric used in the
// paper's complexity bounds.
func (p Pred) Size() int { return len(p.clauses) }

// String renders the predicate in the syntax accepted by Parse; the empty
// predicate renders as "*".
func (p Pred) String() string {
	if p.IsTrue() {
		return "*"
	}
	parts := make([]string, len(p.clauses))
	for i, c := range p.clauses {
		parts[i] = c.String()
	}
	return strings.Join(parts, ", ")
}

// Parse parses a conjunction such as
//
//	job = doctor, age > 300
//	cat = "Film & Animation", com <= 20
//
// Clauses are separated by commas; values may be double-quoted. The input
// "*" or "" parses as the always-true predicate.
//
// Attribute names and unquoted values are slices of input, so a
// predicate costs one allocation, its clause slice, plus one per quoted
// value.
func Parse(input string) (Pred, error) {
	input = strings.TrimSpace(input)
	if input == "" || input == "*" {
		return Pred{}, nil
	}
	// Commas inside quoted values make this an upper bound.
	clauses := make([]Clause, 0, strings.Count(input, ",")+1)
	for rest := input; ; {
		end := clauseEnd(rest)
		c, err := parseClause(rest[:end])
		if err != nil {
			return Pred{}, err
		}
		clauses = append(clauses, c)
		if end == len(rest) {
			return Pred{clauses: clauses}, nil
		}
		rest = rest[end+1:]
	}
}

// MustParse is Parse but panics on error.
func MustParse(input string) Pred {
	p, err := Parse(input)
	if err != nil {
		panic(err)
	}
	return p
}

// clauseEnd returns the index of the first comma of s that is not inside
// double quotes, or len(s). Inside quotes, a backslash escapes the next
// character (the encoding strconv.Quote emits and strconv.Unquote
// reads), so escaped quotes do not end the quoted region.
func clauseEnd(s string) int {
	quoted := false
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '"':
			quoted = !quoted
		case '\\':
			if quoted && i+1 < len(s) {
				i++
			}
		case ',':
			if !quoted {
				return i
			}
		}
	}
	return len(s)
}

func parseClause(s string) (Clause, error) {
	s = strings.TrimSpace(s)
	// Find the operator; check two-byte operators before their one-byte
	// prefixes.
	ops := []struct {
		text string
		op   Op
	}{
		{"<=", Le}, {">=", Ge}, {"!=", Ne}, {"<", Lt}, {">", Gt}, {"=", Eq},
	}
	for _, cand := range ops {
		idx := strings.Index(s, cand.text)
		// A bare '<' or '>' that is really the start of "<="/">=" is not
		// this candidate's operator: skip past such occurrences, so a
		// malformed "a <=" (no value) errors instead of misparsing as
		// a < "=".
		for idx > 0 && len(cand.text) == 1 && (cand.text == "<" || cand.text == ">") &&
			idx+1 < len(s) && s[idx+1] == '=' {
			next := strings.Index(s[idx+2:], cand.text)
			if next < 0 {
				idx = -1
			} else {
				idx += 2 + next
			}
		}
		if idx <= 0 {
			continue
		}
		attr := strings.TrimSpace(s[:idx])
		val := strings.TrimSpace(s[idx+len(cand.text):])
		if !validAttr(attr) || val == "" {
			// This operator occurrence is not the clause's operator (it may
			// sit inside a quoted value, as in `a = "x<=y"`): try the next
			// candidate rather than committing to a malformed split.
			continue
		}
		if len(val) >= 2 && val[0] == '"' && val[len(val)-1] == '"' {
			unq, err := strconv.Unquote(val)
			if err != nil {
				return Clause{}, fmt.Errorf("predicate: bad quoted value in %q: %v", s, err)
			}
			val = unq
		}
		return Clause{Attr: attr, Op: cand.op, Value: val}, nil
	}
	return Clause{}, fmt.Errorf("predicate: no comparison operator in %q", s)
}

// validAttr restricts attribute names to whitespace- and quote-free
// tokens: anything else cannot round-trip through the line-oriented
// formats (and, in practice, only ever arises from misparsing an
// operator character inside a quoted value).
func validAttr(a string) bool {
	if a == "" {
		return false
	}
	for _, r := range a {
		if r <= ' ' || r == '"' || r == 0x7f {
			return false
		}
	}
	return true
}

// ---- evaluation ---------------------------------------------------------

// Compare orders two attribute values: numerically when both parse as
// floats, lexicographically otherwise. It returns -1, 0 or +1.
func Compare(a, b string) int {
	fa, okA := Numeric(a)
	fb, okB := Numeric(b)
	if okA && okB {
		switch {
		case fa < fb:
			return -1
		case fa > fb:
			return 1
		default:
			return 0
		}
	}
	return strings.Compare(a, b)
}

// Numeric reports whether an attribute value belongs to Compare's
// numeric domain, and its parsed value when it does. It is the single
// place the numeric-vs-lexicographic rule is decided: Compare uses it
// for the scan path and internal/candidx uses it to split posting
// columns into the two value domains, so both answer every clause
// identically by construction.
//
// Implementation: ParseFloat with a cheap shape pre-check. ParseFloat's
// failure path allocates a syntax error, and candidate scans call
// Compare once per node per clause, so feeding it the (overwhelmingly
// common) non-numeric attribute values was the dominant allocation of
// query evaluation over string-attributed graphs.
func Numeric(s string) (float64, bool) {
	if !looksNumeric(s) {
		return 0, false
	}
	f, err := strconv.ParseFloat(s, 64)
	return f, err == nil
}

// looksNumeric reports whether s could possibly parse as a float. It
// must never reject a string ParseFloat accepts (that would silently
// change Compare's ordering), so it admits every character of decimal
// and hex float syntax — digits, hex digits (which cover the e/E
// exponent), x/p for hex floats, sign, dot, and digit-separating
// underscores — plus the Inf/Infinity/NaN spellings. False positives
// (e.g. "face1") are fine — they just pay ParseFloat's error — the
// point is rejecting ordinary words and names without constructing one.
func looksNumeric(s string) bool {
	i := 0
	if i < len(s) && (s[i] == '+' || s[i] == '-') {
		i++
	}
	rest := s[i:]
	if strings.EqualFold(rest, "inf") || strings.EqualFold(rest, "infinity") ||
		strings.EqualFold(rest, "nan") {
		return true
	}
	digit := false
	for ; i < len(s); i++ {
		switch c := s[i]; {
		case c >= '0' && c <= '9':
			digit = true
		case c >= 'a' && c <= 'f', c >= 'A' && c <= 'F',
			c == 'x' || c == 'X' || c == 'p' || c == 'P',
			c == '.' || c == '_' || c == '+' || c == '-':
		default:
			return false
		}
	}
	return digit
}

// Holds reports whether "x op y" is true under Compare's ordering —
// the one comparison rule every evaluation path (linear scan, inverted
// index, implication analysis) must agree on.
func (op Op) Holds(x, y string) bool {
	c := Compare(x, y)
	switch op {
	case Lt:
		return c < 0
	case Le:
		return c <= 0
	case Eq:
		return c == 0
	case Ne:
		return c != 0
	case Gt:
		return c > 0
	case Ge:
		return c >= 0
	}
	return false
}

// Eval reports whether a node carrying the given attribute tuple matches
// the predicate: every clause's attribute must be present and satisfy its
// comparison.
func (p Pred) Eval(attrs map[string]string) bool {
	for _, c := range p.clauses {
		v, ok := attrs[c.Attr]
		if !ok || !c.Op.Holds(v, c.Value) {
			return false
		}
	}
	return true
}

// AppendKey appends a canonical cache key for the predicate to dst and
// returns the extended slice: clauses are sorted (a conjunction is
// order-independent), so two predicates with the same clause multiset in
// any order share one key. Attribute names and values are
// length-prefixed — they may contain any byte, so a separator-based
// encoding would let distinct predicates collide; the length prefix
// makes the key a prefix code (the operator spellings between two
// prefixed fields cannot be confused with one another or with a digit
// run). The always-true predicate has the key "*". Used by
// candidate-set memoization, which looks keys up in a caller buffer so
// that a hit allocates nothing.
func (p Pred) AppendKey(dst []byte) []byte {
	if p.IsTrue() {
		return append(dst, '*')
	}
	// Predicates are short: an insertion sort over clause positions, on
	// the stack up to eight clauses.
	var small [8]int
	order := small[:0]
	if len(p.clauses) > len(small) {
		order = make([]int, 0, len(p.clauses))
	}
	for i := range p.clauses {
		order = append(order, i)
		for j := i; j > 0 && clauseLess(p.clauses[order[j]], p.clauses[order[j-1]]); j-- {
			order[j], order[j-1] = order[j-1], order[j]
		}
	}
	for _, i := range order {
		c := p.clauses[i]
		dst = strconv.AppendInt(dst, int64(len(c.Attr)), 10)
		dst = append(dst, ':')
		dst = append(dst, c.Attr...)
		dst = append(dst, c.Op.String()...)
		dst = strconv.AppendInt(dst, int64(len(c.Value)), 10)
		dst = append(dst, ':')
		dst = append(dst, c.Value...)
	}
	return dst
}

func clauseLess(a, b Clause) bool {
	if a.Attr != b.Attr {
		return a.Attr < b.Attr
	}
	if a.Op != b.Op {
		return a.Op < b.Op
	}
	return a.Value < b.Value
}

// ---- satisfiability and implication -------------------------------------

// bound is one end of an interval; empty value means unbounded.
type bound struct {
	value  string
	strict bool
	set    bool
}

// constraints is the per-attribute summary of a predicate's clauses,
// mirroring the a<, a<=, a>, a>=, a= values in the paper's proof of
// Proposition 3.3.
type constraints struct {
	lo, hi bound
	eq     []string // all "=" values (more than one distinct => unsat)
	ne     []string // all "!=" values
}

func (p Pred) byAttr() map[string]*constraints {
	m := map[string]*constraints{}
	for _, c := range p.clauses {
		cs := m[c.Attr]
		if cs == nil {
			cs = &constraints{}
			m[c.Attr] = cs
		}
		switch c.Op {
		case Eq:
			cs.eq = append(cs.eq, c.Value)
		case Ne:
			cs.ne = append(cs.ne, c.Value)
		case Lt:
			cs.tightenHi(c.Value, true)
		case Le:
			cs.tightenHi(c.Value, false)
		case Gt:
			cs.tightenLo(c.Value, true)
		case Ge:
			cs.tightenLo(c.Value, false)
		}
	}
	return m
}

func (cs *constraints) tightenHi(v string, strict bool) {
	if !cs.hi.set || Compare(v, cs.hi.value) < 0 || (Compare(v, cs.hi.value) == 0 && strict) {
		cs.hi = bound{value: v, strict: strict, set: true}
	}
}

func (cs *constraints) tightenLo(v string, strict bool) {
	if !cs.lo.set || Compare(v, cs.lo.value) > 0 || (Compare(v, cs.lo.value) == 0 && strict) {
		cs.lo = bound{value: v, strict: strict, set: true}
	}
}

// sat reports whether the attribute's constraint set admits any value,
// assuming a dense value domain.
func (cs *constraints) sat() bool {
	// Distinct "=" values conflict.
	for i := 1; i < len(cs.eq); i++ {
		if Compare(cs.eq[i], cs.eq[0]) != 0 {
			return false
		}
	}
	if len(cs.eq) > 0 {
		e := cs.eq[0]
		if cs.lo.set && (Compare(e, cs.lo.value) < 0 || (Compare(e, cs.lo.value) == 0 && cs.lo.strict)) {
			return false
		}
		if cs.hi.set && (Compare(e, cs.hi.value) > 0 || (Compare(e, cs.hi.value) == 0 && cs.hi.strict)) {
			return false
		}
		for _, n := range cs.ne {
			if Compare(e, n) == 0 {
				return false
			}
		}
		return true
	}
	if cs.lo.set && cs.hi.set {
		c := Compare(cs.lo.value, cs.hi.value)
		if c > 0 {
			return false
		}
		if c == 0 {
			if cs.lo.strict || cs.hi.strict {
				return false
			}
			// Interval is a single point; a "!=" on it empties it.
			for _, n := range cs.ne {
				if Compare(n, cs.lo.value) == 0 {
					return false
				}
			}
		}
	}
	return true
}

// Satisfiable reports whether some attribute tuple matches the predicate.
func (p Pred) Satisfiable() bool {
	for _, cs := range p.byAttr() {
		if !cs.sat() {
			return false
		}
	}
	return true
}

// Implies reports whether p ⊢ q: every node matching p also matches q
// (the paper writes u1 ⊢ w1). An unsatisfiable p implies everything. The
// reasoning is per-attribute over a dense domain, following the four cases
// in the paper's proof of Proposition 3.3.
func (p Pred) Implies(q Pred) bool {
	if !p.Satisfiable() {
		return true
	}
	pa := p.byAttr()
	for _, c := range q.Clauses() {
		cs, ok := pa[c.Attr]
		if !ok {
			// p says nothing about the attribute, so a matching node might
			// not even carry it.
			return false
		}
		if !cs.implies(c.Op, c.Value) {
			return false
		}
	}
	return true
}

// implies reports whether every value admitted by the constraint set
// satisfies "x op a".
func (cs *constraints) implies(op Op, a string) bool {
	if len(cs.eq) > 0 {
		return op.Holds(cs.eq[0], a)
	}
	switch op {
	case Eq:
		// Only a pinched inclusive interval [a, a] forces equality.
		return cs.lo.set && cs.hi.set && !cs.lo.strict && !cs.hi.strict &&
			Compare(cs.lo.value, a) == 0 && Compare(cs.hi.value, a) == 0
	case Le:
		if !cs.hi.set {
			return false
		}
		if cs.hi.strict {
			return Compare(cs.hi.value, a) <= 0 // x < h, h <= a ⇒ x < a <= a
		}
		return Compare(cs.hi.value, a) <= 0
	case Lt:
		if !cs.hi.set {
			return false
		}
		if cs.hi.strict {
			return Compare(cs.hi.value, a) <= 0
		}
		return Compare(cs.hi.value, a) < 0
	case Ge:
		if !cs.lo.set {
			return false
		}
		return Compare(cs.lo.value, a) >= 0
	case Gt:
		if !cs.lo.set {
			return false
		}
		if cs.lo.strict {
			return Compare(cs.lo.value, a) >= 0
		}
		return Compare(cs.lo.value, a) > 0
	case Ne:
		// Implied when a lies outside the admitted set.
		if cs.lo.set && (Compare(a, cs.lo.value) < 0 || (Compare(a, cs.lo.value) == 0 && cs.lo.strict)) {
			return true
		}
		if cs.hi.set && (Compare(a, cs.hi.value) > 0 || (Compare(a, cs.hi.value) == 0 && cs.hi.strict)) {
			return true
		}
		for _, n := range cs.ne {
			if Compare(n, a) == 0 {
				return true
			}
		}
		return false
	}
	return false
}

// Equivalent reports whether p and q match exactly the same nodes.
func Equivalent(p, q Pred) bool {
	return p.Implies(q) && q.Implies(p)
}

// And returns the conjunction of two predicates.
func And(p, q Pred) Pred {
	out := make([]Clause, 0, len(p.clauses)+len(q.clauses))
	out = append(out, p.clauses...)
	out = append(out, q.clauses...)
	return Pred{clauses: out}
}

// Attrs returns the sorted set of attribute names the predicate mentions.
func (p Pred) Attrs() []string {
	seen := map[string]bool{}
	var out []string
	for _, c := range p.clauses {
		if !seen[c.Attr] {
			seen[c.Attr] = true
			out = append(out, c.Attr)
		}
	}
	sort.Strings(out)
	return out
}
