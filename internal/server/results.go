package server

// The SPARQL 1.1 Query Results JSON encoder. Rows arrive from
// Reasoner.Exec as dictionary IDs and each projected term is written
// straight from its dictionary string into the response buffer: no
// per-row map, no reflection. The output is byte-for-byte what
// encoding/json produced for the document shape
//
//	{"head":{"vars":[...]},"results":{"bindings":[{var: binding}, ...]}}
//
// with binding = {"type", "value", "xml:lang" (omitempty),
// "datatype" (omitempty)}: binding keys in json.Marshal's sorted map
// order, the binding fields in declaration order, and json's string
// escaping (HTML-safe <, >, &; \ufffd for invalid UTF-8; escaped
// U+2028/U+2029). Cached bodies, and clients comparing them, depend on
// that identity; FuzzResultsJSON holds it against encoding/json.

import (
	"slices"
	"sort"
	"strings"
	"unicode/utf8"

	"inferray"
	"inferray/internal/rdf"
)

// resultStream encodes a sparql-results+json document incrementally
// into a buffer: the envelope and head on the first callback, one
// encoded binding per row, and the closing brackets in close — bounded
// per-row work, no whole-document marshal.
type resultStream struct {
	buf     []byte
	order   []int    // projected columns in sorted-name order, duplicates dropped
	keys    [][]byte // per projected column, its encoded `"name":` prefix
	scratch []byte
	started bool
	rows    int
}

func (st *resultStream) head(vars []string) {
	st.buf = append(st.buf, `{"head":{"vars":[`...)
	for i, v := range vars {
		if i > 0 {
			st.buf = append(st.buf, ',')
		}
		st.buf = appendJSONString(st.buf, v)
	}
	st.buf = append(st.buf, `]},"results":{"bindings":[`...)
	st.order = make([]int, 0, len(vars))
	st.keys = make([][]byte, len(vars))
	seen := make(map[string]bool, len(vars))
	for i, v := range vars {
		if !seen[v] {
			seen[v] = true
			st.order = append(st.order, i)
			st.keys[i] = append(appendJSONString(nil, v), ':')
		}
	}
	sort.Slice(st.order, func(a, b int) bool { return vars[st.order[a]] < vars[st.order[b]] })
	st.started = true
}

// termRow is what the encoder needs of a row: the surface form of each
// projected column (inferray.Row in the server, a plain slice in
// tests). A type parameter rather than an interface, so passing a row
// never boxes it.
type termRow interface {
	Term(i int) (string, bool)
}

func (st *resultStream) row(row inferray.Row) bool { return writeRow(st, row) }

func writeRow[R termRow](st *resultStream, row R) bool {
	if cap(st.buf)-len(st.buf) < 512 {
		// Double, as bytes.Buffer does: append alone grows a large
		// slice by 1.25×, copying a multi-megabyte body many times.
		st.buf = slices.Grow(st.buf, max(len(st.buf), 512))
	}
	if st.rows > 0 {
		st.buf = append(st.buf, ',')
	}
	st.buf = append(st.buf, '{')
	first := true
	for _, i := range st.order {
		term, ok := row.Term(i)
		if !ok {
			continue
		}
		if !first {
			st.buf = append(st.buf, ',')
		}
		first = false
		st.buf = append(st.buf, st.keys[i]...)
		st.buf = st.appendBinding(st.buf, term)
	}
	st.buf = append(st.buf, '}')
	st.rows++
	return true
}

// close terminates the document and returns it.
func (st *resultStream) close() []byte {
	if !st.started {
		// A query with no head callback (defensive; Exec always calls
		// it for SELECT) still gets a valid empty document.
		st.head([]string{})
	}
	return append(st.buf, "]}}\n"...)
}

// appendBinding writes one N-Triples surface form as a results-JSON
// term object.
func (st *resultStream) appendBinding(dst []byte, term string) []byte {
	switch {
	case rdf.IsIRI(term):
		dst = append(dst, `{"type":"uri","value":`...)
		dst = appendJSONString(dst, term[1:len(term)-1])
	case rdf.IsBlank(term):
		dst = append(dst, `{"type":"bnode","value":`...)
		dst = appendJSONString(dst, term[2:])
	case rdf.IsLiteral(term):
		dst = append(dst, `{"type":"literal","value":`...)
		end := closingQuote(term)
		if end < 0 {
			// Unterminated: the surface form is the value.
			dst = appendJSONString(dst, term)
			break
		}
		st.scratch = appendUnescaped(st.scratch[:0], term[1:end])
		dst = appendJSONString(dst, st.scratch)
		switch suffix := term[end+1:]; {
		case strings.HasPrefix(suffix, "@"):
			if len(suffix) > 1 {
				dst = append(dst, `,"xml:lang":`...)
				dst = appendJSONString(dst, suffix[1:])
			}
		case strings.HasPrefix(suffix, "^^<") && strings.HasSuffix(suffix, ">") && len(suffix) > 4:
			dst = append(dst, `,"datatype":`...)
			dst = appendJSONString(dst, suffix[3:len(suffix)-1])
		}
	default:
		dst = append(dst, `{"type":"literal","value":`...)
		dst = appendJSONString(dst, term)
	}
	return append(dst, '}')
}

// closingQuote returns the index of a literal's closing quote, skipping
// backslash escapes the way rdf.UnescapeLiteral does, or -1 when the
// literal is unterminated.
func closingQuote(term string) int {
	for i := 1; i < len(term); i++ {
		switch term[i] {
		case '"':
			return i
		case '\\':
			i++
		}
	}
	return -1
}

// appendUnescaped appends the lexical form of a literal body (the text
// between the quotes), resolving escapes as rdf.UnescapeLiteral does.
func appendUnescaped(dst []byte, body string) []byte {
	for i := 0; i < len(body); i++ {
		c := body[i]
		if c == '\\' && i+1 < len(body) {
			i++
			switch c = body[i]; c {
			case 'n':
				c = '\n'
			case 't':
				c = '\t'
			case 'r':
				c = '\r'
			}
		}
		dst = append(dst, c)
	}
	return dst
}

const hexDigits = "0123456789abcdef"

// jsonSafe marks the bytes encoding/json copies verbatim with HTML
// escaping on: printable ASCII other than ", \, <, > and &. Bytes from
// 0x80 up start a UTF-8 sequence and take the slow path.
var jsonSafe = func() (safe [256]bool) {
	for b := 0x20; b < utf8.RuneSelf; b++ {
		safe[b] = true
	}
	for _, b := range `"\<>&` {
		safe[b] = false
	}
	return safe
}()

// appendJSONString appends s as a JSON string exactly as encoding/json
// does with HTML escaping on.
func appendJSONString[S []byte | string](dst []byte, s S) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if jsonSafe[s[i]] {
			i++
			continue
		}
		if b := s[i]; b < utf8.RuneSelf {
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		n := min(len(s)-i, utf8.UTFMax)
		c, size := utf8.DecodeRuneInString(string(s[i : i+n]))
		if c == utf8.RuneError && size == 1 {
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
			i++
			start = i
			continue
		}
		if c == '\u2028' || c == '\u2029' {
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}
