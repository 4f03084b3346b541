package wire

import (
	"strconv"
	"unicode/utf8"
)

// decodeLine decodes one request line of the shape the wire defines
// without going through reflection: an object whose keys are exactly
// "id", "rq" (an object of "from", "to" and "expr"), "pq", "count",
// "priority" and "deadline_ms", each at most once, with string values
// using the standard escapes (non-surrogate \uXXXX only), JSON
// integers and booleans. ok is false for every other line — unknown or
// case-variant keys, duplicates, null, surrogate escapes, fractions and
// exponents, invalid UTF-8, anything malformed — and the caller then
// decodes it with encoding/json, which stays the reference: a line
// decodeLine accepts decodes to exactly the Request json.Unmarshal
// gives (FuzzDecode checks this).
func decodeLine(b []byte) (req Request, ok bool) {
	s := lineScanner{b: b}
	var seen uint8
	ok = s.object(func(key []byte) bool {
		var bit uint8
		switch string(key) {
		case "id":
			bit = 1 << 0
			v, ok := s.uint()
			if !ok {
				return false
			}
			req.ID = &v
		case "rq":
			bit = 1 << 1
			rq, ok := s.rq()
			if !ok {
				return false
			}
			req.RQ = rq
		case "pq":
			bit = 1 << 2
			v, ok := s.str()
			if !ok {
				return false
			}
			req.PQ = v
		case "count":
			bit = 1 << 3
			v, ok := s.bool()
			if !ok {
				return false
			}
			req.Count = v
		case "priority":
			bit = 1 << 4
			v, ok := s.int(strconv.IntSize)
			if !ok {
				return false
			}
			req.Priority = int(v)
		case "deadline_ms":
			bit = 1 << 5
			v, ok := s.int(64)
			if !ok {
				return false
			}
			req.DeadlineMS = v
		default:
			return false
		}
		if seen&bit != 0 {
			return false
		}
		seen |= bit
		return true
	})
	s.space()
	return req, ok && s.i == len(s.b)
}

// lineScanner is decodeLine's cursor over one line. Every method
// reports false on input it does not recognise, which declines the
// whole line.
type lineScanner struct {
	b []byte
	i int
}

func (s *lineScanner) space() {
	for s.i < len(s.b) {
		switch s.b[s.i] {
		case ' ', '\t', '\n', '\r':
			s.i++
		default:
			return
		}
	}
}

// consume skips whitespace and then the byte c, if it is next.
func (s *lineScanner) consume(c byte) bool {
	s.space()
	if s.i < len(s.b) && s.b[s.i] == c {
		s.i++
		return true
	}
	return false
}

// object reads one object, calling member for each key with the
// cursor on the value's first byte.
func (s *lineScanner) object(member func(key []byte) bool) bool {
	if !s.consume('{') {
		return false
	}
	if s.consume('}') {
		return true
	}
	for {
		if !s.consume('"') {
			return false
		}
		start := s.i
		for s.i < len(s.b) && s.b[s.i] != '"' && s.b[s.i] != '\\' && s.b[s.i] >= ' ' {
			s.i++
		}
		// An escaped key never names a field here: the switch over raw
		// key bytes declines it.
		key := s.b[start:s.i]
		if s.i == len(s.b) || s.b[s.i] != '"' {
			return false
		}
		s.i++
		if !s.consume(':') {
			return false
		}
		s.space()
		if !member(key) {
			return false
		}
		if s.consume('}') {
			return true
		}
		if !s.consume(',') {
			return false
		}
	}
}

func (s *lineScanner) rq() (*RQSpec, bool) {
	rq := &RQSpec{}
	var seen uint8
	ok := s.object(func(key []byte) bool {
		var bit uint8
		var dst *string
		switch string(key) {
		case "from":
			bit, dst = 1<<0, &rq.From
		case "to":
			bit, dst = 1<<1, &rq.To
		case "expr":
			bit, dst = 1<<2, &rq.Expr
		default:
			return false
		}
		if seen&bit != 0 {
			return false
		}
		seen |= bit
		v, ok := s.str()
		*dst = v
		return ok
	})
	return rq, ok
}

func (s *lineScanner) bool() (bool, bool) {
	switch {
	case s.literal("true"):
		return true, true
	case s.literal("false"):
		return false, true
	}
	return false, false
}

func (s *lineScanner) literal(w string) bool {
	if len(s.b)-s.i >= len(w) && string(s.b[s.i:s.i+len(w)]) == w {
		s.i += len(w)
		return true
	}
	return false
}

// digits reads a JSON integer: an optional minus (when signed), then 0
// or a digit run without a leading zero, not followed by a fraction or
// an exponent.
func (s *lineScanner) digits(signed bool) ([]byte, bool) {
	start := s.i
	if signed && s.i < len(s.b) && s.b[s.i] == '-' {
		s.i++
	}
	first := s.i
	for s.i < len(s.b) && s.b[s.i] >= '0' && s.b[s.i] <= '9' {
		s.i++
	}
	n := s.i - first
	if n == 0 || (n > 1 && s.b[first] == '0') {
		return nil, false
	}
	if s.i < len(s.b) {
		switch s.b[s.i] {
		case '.', 'e', 'E':
			return nil, false
		}
	}
	return s.b[start:s.i], true
}

func (s *lineScanner) uint() (uint64, bool) {
	d, ok := s.digits(false)
	if !ok {
		return 0, false
	}
	v, err := strconv.ParseUint(string(d), 10, 64)
	return v, err == nil
}

func (s *lineScanner) int(bits int) (int64, bool) {
	d, ok := s.digits(true)
	if !ok {
		return 0, false
	}
	v, err := strconv.ParseInt(string(d), 10, bits)
	return v, err == nil
}

// str reads one string value. Without escapes it is one copy of the
// line's bytes; with them it is decoded into a small buffer first.
func (s *lineScanner) str() (string, bool) {
	if s.i >= len(s.b) || s.b[s.i] != '"' {
		return "", false
	}
	s.i++
	start := s.i
	for s.i < len(s.b) {
		c := s.b[s.i]
		switch {
		case c == '"':
			v := string(s.b[start:s.i])
			s.i++
			return v, true
		case c == '\\':
			return s.escaped(start)
		case c < ' ':
			return "", false
		case c < utf8.RuneSelf:
			s.i++
		default:
			if !s.rune() {
				return "", false
			}
		}
	}
	return "", false
}

// rune steps over one multi-byte UTF-8 sequence, declining an invalid
// one (encoding/json would replace it with U+FFFD).
func (s *lineScanner) rune() bool {
	r, n := utf8.DecodeRune(s.b[s.i:])
	if r == utf8.RuneError && n == 1 {
		return false
	}
	s.i += n
	return true
}

// escaped finishes a string whose first escape is at the cursor.
func (s *lineScanner) escaped(start int) (string, bool) {
	var small [64]byte
	buf := append(small[:0], s.b[start:s.i]...)
	for s.i < len(s.b) {
		c := s.b[s.i]
		switch {
		case c == '"':
			s.i++
			return string(buf), true
		case c < ' ':
			return "", false
		case c == '\\':
			if s.i+1 >= len(s.b) {
				return "", false
			}
			e := s.b[s.i+1]
			s.i += 2
			switch e {
			case '"', '\\', '/':
				buf = append(buf, e)
			case 'b':
				buf = append(buf, '\b')
			case 'f':
				buf = append(buf, '\f')
			case 'n':
				buf = append(buf, '\n')
			case 'r':
				buf = append(buf, '\r')
			case 't':
				buf = append(buf, '\t')
			case 'u':
				r, ok := s.hex4()
				if !ok || utf8.RuneLen(r) < 0 { // surrogate halves go to encoding/json
					return "", false
				}
				buf = utf8.AppendRune(buf, r)
			default:
				return "", false
			}
		case c < utf8.RuneSelf:
			buf = append(buf, c)
			s.i++
		default:
			from := s.i
			if !s.rune() {
				return "", false
			}
			buf = append(buf, s.b[from:s.i]...)
		}
	}
	return "", false
}

func (s *lineScanner) hex4() (rune, bool) {
	if len(s.b)-s.i < 4 {
		return 0, false
	}
	var r rune
	for _, c := range s.b[s.i : s.i+4] {
		switch {
		case c >= '0' && c <= '9':
			c -= '0'
		case c >= 'a' && c <= 'f':
			c -= 'a' - 10
		case c >= 'A' && c <= 'F':
			c -= 'A' - 10
		default:
			return 0, false
		}
		r = r<<4 | rune(c)
	}
	s.i += 4
	return r, true
}
