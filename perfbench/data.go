package main

import (
	"bytes"
	"errors"
	"fmt"
	"sort"
	"strings"

	"inferray"
	"inferray/internal/datagen"
	"inferray/internal/rdf"
)

// lubm is the IRI namespace internal/datagen's LUBM generator emits.
const lubm = "http://example.org/lubm/"

func term(local string) string { return "<" + lubm + local + ">" }

// dataset is one seeded LUBM input: the generated triples, their
// N-Triples document (what every workload loads), and pools of IRIs the
// generator really emitted, from which the query templates draw their
// constants. Every pool entry is taken from a generated triple, so a
// template instantiated from it matches at least that triple.
type dataset struct {
	triples []rdf.Triple
	nt      []byte

	// depts are departments with at least one memberOf subject.
	depts []string
	// advisors are professors that advise at least one student.
	advisors []string
	// courses are courses at least one student takes.
	courses []string
	// members pairs a student with the university of a department it
	// is a member of, for ASK templates.
	members []memberOf
}

type memberOf struct{ student, univ string }

// generate runs datagen.LUBM(target, seed) and serializes the result.
func generate(target int, seed int64) (*dataset, error) {
	triples := datagen.LUBM(target, seed)
	var buf bytes.Buffer
	if err := rdf.WriteNTriples(&buf, triples); err != nil {
		return nil, fmt.Errorf("serializing LUBM: %w", err)
	}
	return &dataset{triples: triples, nt: buf.Bytes()}, nil
}

// collectPools fills the template pools from the generated triples.
func (d *dataset) collectPools() error {
	depts := map[string]bool{}
	advisors := map[string]bool{}
	courses := map[string]bool{}
	student := strings.TrimSuffix(term("Student"), ">")
	for _, t := range d.triples {
		switch t.P {
		case term("memberOf"):
			depts[t.O] = true
			if strings.HasPrefix(t.S, student) {
				d.members = append(d.members, memberOf{student: t.S, univ: univOf(t.O)})
			}
		case term("advisor"):
			advisors[t.O] = true
		case term("takesCourse"):
			courses[t.O] = true
		}
	}
	d.depts, d.advisors, d.courses = sortedKeys(depts), sortedKeys(advisors), sortedKeys(courses)
	if len(d.depts) == 0 || len(d.advisors) == 0 || len(d.courses) == 0 || len(d.members) == 0 {
		return errors.New("LUBM output lacks the entities the query templates need")
	}
	return nil
}

// univOf maps <…/UnivU/DeptD> to <…/UnivU>.
func univOf(dept string) string {
	i := strings.LastIndex(dept, "/")
	return dept[:i] + ">"
}

func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// closureDigest is an order-independent fingerprint of a visible
// closure: the triple count plus the sum and the xor of a 64-bit hash of
// every triple. Two closures with equal digests hold the same triples
// up to a hash collision.
type closureDigest struct {
	Size     int
	Sum, Xor uint64
}

func digestOf(r *inferray.Reasoner) closureDigest {
	var d closureDigest
	r.Triples(func(t inferray.Triple) bool {
		d.add(t.S, t.P, t.O)
		return true
	})
	return d
}

func (d *closureDigest) add(s, p, o string) {
	const prime = 1099511628211
	v := uint64(14695981039346656037) // FNV-1a over s 0 p 0 o
	for _, part := range [3]string{s, p, o} {
		for i := 0; i < len(part); i++ {
			v = (v ^ uint64(part[i])) * prime
		}
		v *= prime
	}
	d.Size++
	d.Sum += v
	d.Xor ^= v
}

// splitmix64 derives request parameters from (seed, index) without any
// shared generator state, so request i is the same in every run with the
// same seed no matter how many clients send the sequence.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func mix(seed int64, stream, i uint64) uint64 {
	return splitmix64(splitmix64(uint64(seed)^stream<<56) + i)
}

// permute returns the position of element j in a seeded permutation of
// 0..n-1 for the given block: a stratified draw that gives every block
// exactly the same template mix.
func permute(seed int64, stream, block uint64, n, j int) int {
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	for i := n - 1; i > 0; i-- {
		k := int(mix(seed, stream, block*uint64(n)+uint64(i)) % uint64(i+1))
		perm[i], perm[k] = perm[k], perm[i]
	}
	return perm[j]
}

// countSolutions returns the number of solutions in a SPARQL-JSON
// results document: the length of results.bindings, or 1 / 0 for an
// ASK answered true / false. It scans the array structurally (strings
// and nesting aware) instead of decoding it, so counting a 28k-row body
// costs the client little CPU next to the server it shares a box with.
func countSolutions(body []byte) (int, error) {
	if i := bytes.Index(body, []byte(`"bindings"`)); i >= 0 {
		rest := bytes.TrimLeft(body[i+len(`"bindings"`):], " \t\r\n")
		if len(rest) == 0 || rest[0] != ':' {
			return 0, errors.New("malformed bindings member")
		}
		rest = bytes.TrimLeft(rest[1:], " \t\r\n")
		if len(rest) == 0 || rest[0] != '[' {
			return 0, errors.New("bindings is not an array")
		}
		return countArray(rest)
	}
	if i := bytes.Index(body, []byte(`"boolean"`)); i >= 0 {
		rest := bytes.TrimLeft(body[i+len(`"boolean"`):], " \t\r\n:")
		switch {
		case bytes.HasPrefix(rest, []byte("true")):
			return 1, nil
		case bytes.HasPrefix(rest, []byte("false")):
			return 0, nil
		}
	}
	return 0, fmt.Errorf("not a SPARQL results document: %.80q", body)
}

// countArray counts the top-level elements of the JSON array that
// starts at arr[0].
func countArray(arr []byte) (int, error) {
	depth, n := 0, 0
	inString, escaped, sawValue := false, false, false
	for _, c := range arr {
		if inString {
			switch {
			case escaped:
				escaped = false
			case c == '\\':
				escaped = true
			case c == '"':
				inString = false
			}
			continue
		}
		switch c {
		case '"':
			inString = true
			sawValue = true
		case '[', '{':
			depth++
			if depth > 1 {
				sawValue = true
			}
		case ']', '}':
			depth--
			if depth == 0 {
				if sawValue {
					n++
				}
				return n, nil
			}
		case ',':
			if depth == 1 {
				n++
			}
		case ' ', '\t', '\r', '\n':
		default:
			sawValue = true
		}
	}
	return 0, errors.New("unterminated array")
}
