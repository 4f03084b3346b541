// Package qlang implements the textual pattern-query language used by
// cmd/rgquery and the examples: a line-oriented format with one node or
// edge declaration per line.
//
//	# biologists against Alice's doctor friends
//	node C   job = biologist, sp = cloning
//	node B   job = doctor, dsp = cloning
//	node D   uid = Alice001
//	edge C B fn
//	edge C D fa{2} sa{2}
//
// Fields are separated by tabs or runs of spaces; the node predicate and
// the edge expression are everything after the fixed fields, so
// predicates may contain spaces. "*" (or nothing) is the always-true
// predicate. Lines starting with '#' are comments.
package qlang

import (
	"bufio"
	"fmt"
	"io"
	"strings"

	"regraph/internal/pattern"
	"regraph/internal/predicate"
	"regraph/internal/rex"
)

// maxLineBytes is the longest pattern line ParsePattern accepts; a
// longer one fails with bufio.ErrTooLong.
const maxLineBytes = 1 << 20

// ParsePattern reads a pattern query from the line format.
func ParsePattern(r io.Reader) (*pattern.Query, error) {
	q := pattern.New()
	sc := bufio.NewScanner(r)
	// Lines may be up to maxLineBytes long, but the buffer starts empty
	// and grows only as far as the longest line needs: a pattern is a few
	// short lines, and ParsePattern runs once per served pq request.
	sc.Buffer(nil, maxLineBytes)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		kind, rest := splitField(line)
		switch kind {
		case "node":
			name, predSrc := splitField(rest)
			if name == "" {
				return nil, fmt.Errorf("qlang: line %d: node needs a name", lineNo)
			}
			p, err := predicate.Parse(predSrc)
			if err != nil {
				return nil, fmt.Errorf("qlang: line %d: %v", lineNo, err)
			}
			q.AddNode(name, p)
		case "edge":
			from, rest2 := splitField(rest)
			to, exprSrc := splitField(rest2)
			if from == "" || to == "" || exprSrc == "" {
				return nil, fmt.Errorf("qlang: line %d: edge needs from, to and an expression", lineNo)
			}
			e, err := rex.Parse(exprSrc)
			if err != nil {
				return nil, fmt.Errorf("qlang: line %d: %v", lineNo, err)
			}
			fi, ok := q.NodeIndex(from)
			if !ok {
				return nil, fmt.Errorf("qlang: line %d: unknown node %q (declare nodes before edges)", lineNo, from)
			}
			ti, ok := q.NodeIndex(to)
			if !ok {
				return nil, fmt.Errorf("qlang: line %d: unknown node %q (declare nodes before edges)", lineNo, to)
			}
			q.AddEdge(fi, ti, e)
		default:
			return nil, fmt.Errorf("qlang: line %d: unknown record %q (want node/edge)", lineNo, kind)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if q.NumNodes() == 0 {
		return nil, fmt.Errorf("qlang: empty pattern")
	}
	return q, nil
}

// ParsePatternString is ParsePattern over a string.
func ParsePatternString(s string) (*pattern.Query, error) {
	return ParsePattern(strings.NewReader(s))
}

// WritePattern serializes a pattern query in the format ParsePattern
// reads.
func WritePattern(w io.Writer, q *pattern.Query) error {
	bw := bufio.NewWriter(w)
	for i := 0; i < q.NumNodes(); i++ {
		n := q.Node(i)
		if _, err := fmt.Fprintf(bw, "node\t%s\t%s\n", n.Name, n.Pred); err != nil {
			return err
		}
	}
	for ei := 0; ei < q.NumEdges(); ei++ {
		e := q.Edge(ei)
		if _, err := fmt.Fprintf(bw, "edge\t%s\t%s\t%s\n",
			q.Node(e.From).Name, q.Node(e.To).Name, e.Expr); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// splitField returns the first whitespace-delimited field and the
// trimmed remainder of the line.
func splitField(s string) (field, rest string) {
	s = strings.TrimSpace(s)
	idx := strings.IndexAny(s, " \t")
	if idx < 0 {
		return s, ""
	}
	return s[:idx], strings.TrimSpace(s[idx:])
}
