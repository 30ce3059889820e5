package server

import (
	"encoding/json"
	"math"
	"reflect"
	"strconv"
	"unicode/utf8"
)

// The query endpoints' wire encoder. queryResponse is the one declaration
// of the wire shape; appendResponse writes it field by field, in
// declaration order, with the omitempty rules of its struct tags, so its
// output is byte for byte what json.Marshal gives (FuzzResponseEncode
// holds it to that): compact, floats in encoding/json's ES6 form, strings
// HTML-escaped, and a non-finite float an *json.UnsupportedValueError.

// appendResponse appends the JSON encoding of r and a trailing newline to
// dst.
func appendResponse(dst []byte, r *queryResponse) ([]byte, error) {
	e := encoder{b: dst}
	e.lit(`{"kind":`)
	e.str(r.Kind)
	if len(r.Candidates) > 0 {
		e.lit(`,"candidates":`)
		e.candidates(r.Candidates)
	}
	if r.F != 0 {
		e.lit(`,"f":`)
		e.float(r.F)
	}
	if len(r.Ranked) > 0 {
		e.lit(`,"ranked":[`)
		for i, c := range r.Ranked {
			if i > 0 {
				e.lit(",")
			}
			e.lit(`{"id":`)
			e.int(int64(c.ID))
			e.lit(`,"edge":`)
			e.int(int64(c.Edge))
			e.lit(`,"offset":`)
			e.float(c.Offset)
			e.lit(`,"dist":`)
			e.float(c.Dist)
			e.lit(`,"matched":`)
			e.int(int64(c.Matched))
			e.lit(`,"score":`)
			e.float(c.Score)
			e.lit("}")
		}
		e.lit("]")
	}
	if c := r.Collective; c != nil {
		e.lit(`,"collective":{"objects":`)
		if c.Objects == nil {
			e.lit("null")
		} else {
			e.candidates(c.Objects)
		}
		e.lit(`,"cost":`)
		e.float(c.Cost)
		e.lit(`,"covered":`)
		e.bool(c.Covered)
		if len(c.Uncovered) > 0 {
			e.lit(`,"uncovered":[`)
			for i, t := range c.Uncovered {
				if i > 0 {
					e.lit(",")
				}
				e.int(int64(t))
			}
			e.lit("]")
		}
		e.lit("}")
	}
	if r.Distance != nil {
		e.lit(`,"distance":`)
		e.float(*r.Distance)
	}
	e.lit(`,"elapsedMicros":`)
	e.int(r.ElapsedMicros)
	e.lit(`,"diskReads":`)
	e.int(r.DiskReads)
	if len(r.LSNs) > 0 {
		e.lit(`,"lsns":[`)
		for i, lsn := range r.LSNs {
			if i > 0 {
				e.lit(",")
			}
			e.b = strconv.AppendUint(e.b, lsn, 10)
		}
		e.lit("]")
	}
	if len(r.Queried) > 0 {
		e.lit(`,"queriedShards":[`)
		for i, s := range r.Queried {
			if i > 0 {
				e.lit(",")
			}
			e.int(int64(s))
		}
		e.lit("]")
	}
	if r.Pruned != 0 {
		e.lit(`,"prunedShards":`)
		e.int(int64(r.Pruned))
	}
	if r.Partial {
		e.lit(`,"partial":true`)
	}
	if len(r.ShardErrors) > 0 {
		e.lit(`,"shardErrors":[`)
		for i, se := range r.ShardErrors {
			if i > 0 {
				e.lit(",")
			}
			e.lit(`{"shard":`)
			e.int(int64(se.Shard))
			e.lit(`,"error":`)
			e.str(se.Err)
			e.lit("}")
		}
		e.lit("]")
	}
	e.lit("}\n")
	if e.err != nil {
		return nil, e.err
	}
	return e.b, nil
}

// responseSize estimates the encoded size of r, so a response is written
// into one allocation.
func responseSize(r *queryResponse) int {
	n := 96 + 80*len(r.Candidates) + 112*len(r.Ranked) + 24*(len(r.LSNs)+len(r.Queried))
	if c := r.Collective; c != nil {
		n += 64 + 80*len(c.Objects) + 12*len(c.Uncovered)
	}
	for _, se := range r.ShardErrors {
		n += 32 + len(se.Err)
	}
	return n
}

// encoder appends JSON tokens to b, remembering the first non-finite
// float it was handed.
type encoder struct {
	b   []byte
	err error
}

func (e *encoder) lit(s string) { e.b = append(e.b, s...) }

func (e *encoder) int(i int64) { e.b = strconv.AppendInt(e.b, i, 10) }

func (e *encoder) bool(v bool) { e.b = strconv.AppendBool(e.b, v) }

func (e *encoder) candidates(cs []candidatePayload) {
	e.lit("[")
	for i, c := range cs {
		if i > 0 {
			e.lit(",")
		}
		e.lit(`{"id":`)
		e.int(int64(c.ID))
		e.lit(`,"edge":`)
		e.int(int64(c.Edge))
		e.lit(`,"offset":`)
		e.float(c.Offset)
		e.lit(`,"dist":`)
		e.float(c.Dist)
		e.lit("}")
	}
	e.lit("]")
}

// float writes f the way encoding/json does: ES6 number form, exponent
// notation only below 1e-6 or from 1e21 up, and no zero-padded negative
// exponent.
func (e *encoder) float(f float64) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		if e.err == nil {
			e.err = &json.UnsupportedValueError{Value: reflect.ValueOf(f), Str: strconv.FormatFloat(f, 'g', -1, 64)}
		}
		return
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	e.b = strconv.AppendFloat(e.b, f, format, -1, 64)
	if format == 'e' {
		// e-09 → e-9
		if n := len(e.b); n >= 4 && e.b[n-4] == 'e' && e.b[n-3] == '-' && e.b[n-2] == '0' {
			e.b[n-2] = e.b[n-1]
			e.b = e.b[:n-1]
		}
	}
}

// str writes s as a JSON string, escaped as encoding/json escapes it:
// quotes, backslashes and control bytes, the HTML-sensitive <, > and &,
// U+2028 and U+2029, and each invalid UTF-8 byte as the escape of U+FFFD.
func (e *encoder) str(s string) {
	const hex = "0123456789abcdef"
	b := append(e.b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= ' ' && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', 'f', 'f', 'f', 'd')
		case r == 0x2028 || r == 0x2029: // line and paragraph separators
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hex[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	e.b = append(append(b, s[start:]...), '"')
}
