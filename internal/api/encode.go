package api

import (
	"math"
	"sort"
	"strconv"
	"unicode/utf8"
)

// The append encoder. Each AppendJSON method appends the compact JSON
// encoding of its response to dst and returns the extended slice; the
// bytes are exactly what json.Marshal writes for the same value (the
// package doc states the contract, FuzzAppendJSON and the corpus
// property test pin it). The edge encodes the threat-bearing responses
// this way because their bodies are mostly rendered text, and
// json.Marshal's reflection walk and per-call buffer cost more than
// the rendering did.

// Escape classes of a string byte, indexed by the byte.
const (
	escNone = 0    // copied as is
	escHex  = 'u'  // written as \u00XX
	escRune = 0xff // first byte of a multi-byte (or invalid) UTF-8 sequence
	// Any other value v is a two-byte escape: \ followed by v.
)

// escapes classifies every byte the way encoding/json's string encoder
// does with HTML escaping on (its json.Marshal default): control bytes
// and HTML's <, > and & are escaped, \b \f \n \r \t use their short
// forms, and bytes from 0x80 up start a rune that is decoded to catch
// invalid UTF-8 and U+2028/U+2029.
var escapes = func() (t [256]byte) {
	for c := 0; c < utf8.RuneSelf; c++ {
		if c < 0x20 || c == '<' || c == '>' || c == '&' {
			t[c] = escHex
		}
	}
	t['"'], t['\\'] = '"', '\\'
	t['\b'], t['\f'], t['\n'], t['\r'], t['\t'] = 'b', 'f', 'n', 'r', 't'
	for c := utf8.RuneSelf; c < 256; c++ {
		t[c] = escRune
	}
	return t
}()

const hexDigits = "0123456789abcdef"

// AppendString appends s as a JSON string.
func AppendString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		switch e := escapes[c]; e {
		case escNone:
			i++
			continue
		case escRune:
			r, size := utf8.DecodeRuneInString(s[i:])
			switch {
			case r == utf8.RuneError && size == 1:
				dst = append(dst, s[start:i]...)
				dst = append(dst, '\\', 'u', 'f', 'f', 'f', 'd')
			case r == 0x2028 || r == 0x2029: // LINE and PARAGRAPH SEPARATOR
				dst = append(dst, s[start:i]...)
				dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
			default:
				i += size
				continue
			}
			i += size
			start = i
			continue
		case escHex:
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
		default:
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', e)
		}
		i++
		start = i
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// appendFloat appends f as encoding/json writes a float64: the shortest
// round-tripping form, in exponent notation (with the exponent's
// leading zero dropped) only below 1e-6 or from 1e21 up. f must be
// finite: json.Marshal refuses NaN and the infinities.
func appendFloat(dst []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst
}

// appendStrings appends a []string field's value (null for nil).
func appendStrings(dst []byte, ss []string) []byte {
	if ss == nil {
		return append(dst, "null"...)
	}
	dst = append(dst, '[')
	for i, s := range ss {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = AppendString(dst, s)
	}
	return append(dst, ']')
}

func (t *Threat) appendJSON(dst []byte) []byte {
	dst = append(dst, `{"index":`...)
	dst = strconv.AppendInt(dst, int64(t.Index), 10)
	dst = append(dst, `,"kind":`...)
	dst = AppendString(dst, t.Kind)
	dst = append(dst, `,"class":`...)
	dst = AppendString(dst, t.Class)
	dst = append(dst, `,"rule1":`...)
	dst = AppendString(dst, t.Rule1)
	dst = append(dst, `,"rule2":`...)
	dst = AppendString(dst, t.Rule2)
	if t.Property != "" {
		dst = append(dst, `,"property":`...)
		dst = AppendString(dst, t.Property)
	}
	if t.Note != "" {
		dst = append(dst, `,"note":`...)
		dst = AppendString(dst, t.Note)
	}
	dst = append(dst, `,"text":`...)
	dst = AppendString(dst, t.Text)
	return append(dst, '}')
}

// appendThreats appends a []Threat field's value (null for nil).
func appendThreats(dst []byte, ts []Threat) []byte {
	if ts == nil {
		return append(dst, "null"...)
	}
	dst = append(dst, '[')
	for i := range ts {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = ts[i].appendJSON(dst)
	}
	return append(dst, ']')
}

// appendFindings appends a []Finding field's value (null for nil).
func appendFindings(dst []byte, fs []Finding) []byte {
	if fs == nil {
		return append(dst, "null"...)
	}
	dst = append(dst, '[')
	for i := range fs {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, `{"app1":`...)
		dst = AppendString(dst, fs[i].App1)
		dst = append(dst, `,"app2":`...)
		dst = AppendString(dst, fs[i].App2)
		dst = append(dst, `,"threat":`...)
		dst = fs[i].Threat.appendJSON(dst)
		dst = append(dst, '}')
	}
	return append(dst, ']')
}

// appendErrors appends a map[string]*Error field's value, keys sorted
// as json.Marshal sorts them.
func appendErrors(dst []byte, errs map[string]*Error) []byte {
	if errs == nil {
		return append(dst, "null"...)
	}
	keys := make([]string, 0, len(errs))
	for k := range errs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	dst = append(dst, '{')
	for i, k := range keys {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = AppendString(dst, k)
		dst = append(dst, ':')
		dst = errs[k].AppendJSON(dst)
	}
	return append(dst, '}')
}

// AppendJSON appends the error envelope's JSON encoding to dst (null
// for a nil e).
func (e *Error) AppendJSON(dst []byte) []byte {
	if e == nil {
		return append(dst, "null"...)
	}
	dst = append(dst, `{"code":`...)
	dst = AppendString(dst, string(e.Code))
	dst = append(dst, `,"message":`...)
	dst = AppendString(dst, e.Message)
	if e.RetryAfterMs != 0 {
		dst = append(dst, `,"retryAfterMs":`...)
		dst = strconv.AppendInt(dst, e.RetryAfterMs, 10)
	}
	return append(dst, '}')
}

// AppendJSON appends the response's JSON encoding to dst.
func (r *InstallResponse) AppendJSON(dst []byte) []byte {
	dst = append(dst, `{"homeId":`...)
	dst = AppendString(dst, r.HomeID)
	dst = append(dst, `,"app":`...)
	dst = AppendString(dst, r.App)
	dst = append(dst, `,"rules":`...)
	dst = appendStrings(dst, r.Rules)
	dst = append(dst, `,"threats":`...)
	dst = appendThreats(dst, r.Threats)
	if len(r.Chains) > 0 {
		dst = append(dst, `,"chains":`...)
		dst = appendStrings(dst, r.Chains)
	}
	dst = append(dst, `,"report":`...)
	dst = AppendString(dst, r.Report)
	if len(r.Warnings) > 0 {
		dst = append(dst, `,"warnings":`...)
		dst = appendStrings(dst, r.Warnings)
	}
	return append(dst, '}')
}

// AppendJSON appends the response's JSON encoding to dst.
func (r *ReconfigureResponse) AppendJSON(dst []byte) []byte {
	dst = append(dst, `{"homeId":`...)
	dst = AppendString(dst, r.HomeID)
	dst = append(dst, `,"app":`...)
	dst = AppendString(dst, r.App)
	dst = append(dst, `,"threats":`...)
	dst = appendThreats(dst, r.Threats)
	return append(dst, '}')
}

// AppendJSON appends the response's JSON encoding to dst.
func (r *ThreatsResponse) AppendJSON(dst []byte) []byte {
	dst = append(dst, `{"homeId":`...)
	dst = AppendString(dst, r.HomeID)
	if r.Active {
		dst = append(dst, `,"active":true`...)
	}
	dst = append(dst, `,"threats":`...)
	dst = appendThreats(dst, r.Threats)
	return append(dst, '}')
}

// AppendJSON appends the response's JSON encoding to dst. The findings
// lists are copied from the revision's encoded delta while they are
// still the delta's own slices.
func (r *SubmitAppsResponse) AppendJSON(dst []byte) []byte {
	dst = append(dst, `{"rev":`...)
	dst = strconv.AppendUint(dst, r.Rev, 10)
	dst = append(dst, `,"apps":`...)
	dst = strconv.AppendInt(dst, int64(r.Apps), 10)
	dst = append(dst, `,"pairs":`...)
	dst = strconv.AppendInt(dst, int64(r.Pairs), 10)
	dst = r.delta.appendLists(dst, r.Added, r.Resolved)
	if len(r.Errors) > 0 {
		dst = append(dst, `,"errors":`...)
		dst = appendErrors(dst, r.Errors)
	}
	dst = append(dst, `,"durationMs":`...)
	dst = appendFloat(dst, r.DurationMs)
	return append(dst, '}')
}

// AppendJSON appends the response's JSON encoding to dst. A feed of
// exactly one revision that SubmitApps answered (SubmitAppsResponse.Feed)
// copies that revision's encoded delta.
func (r *FindingsResponse) AppendJSON(dst []byte) []byte {
	dst = append(dst, `{"rev":`...)
	dst = strconv.AppendUint(dst, r.Rev, 10)
	dst = append(dst, `,"since":`...)
	dst = strconv.AppendUint(dst, r.Since, 10)
	if r.Reset {
		dst = append(dst, `,"reset":true`...)
	}
	dst = r.delta.appendLists(dst, r.Added, r.Resolved)
	return append(dst, '}')
}

// encodedDelta is one store revision's findings delta, rendered and
// encoded once: the JSON arrays of Added and Resolved, back to back in
// one buffer.
type encodedDelta struct {
	added, resolved []Finding
	enc             []byte
	split           int // enc[:split] is added's array, enc[split:] resolved's
}

func encodeDelta(added, resolved []Finding) *encodedDelta {
	d := &encodedDelta{added: added, resolved: resolved}
	d.enc = appendFindings(make([]byte, 0, findingsSize(added)+findingsSize(resolved)), added)
	d.split = len(d.enc)
	d.enc = appendFindings(d.enc, resolved)
	return d
}

// appendLists appends the omitempty "added" and "resolved" members of
// a response carrying added and resolved. Each list is copied from d
// when it is still d's own slice, and encoded otherwise.
func (d *encodedDelta) appendLists(dst []byte, added, resolved []Finding) []byte {
	if len(added) > 0 {
		dst = append(dst, `,"added":`...)
		if d != nil && sameFindings(added, d.added) {
			dst = append(dst, d.enc[:d.split]...)
		} else {
			dst = appendFindings(dst, added)
		}
	}
	if len(resolved) > 0 {
		dst = append(dst, `,"resolved":`...)
		if d != nil && sameFindings(resolved, d.resolved) {
			dst = append(dst, d.enc[d.split:]...)
		} else {
			dst = appendFindings(dst, resolved)
		}
	}
	return dst
}

// sameFindings reports whether a and b are the same non-empty slice.
func sameFindings(a, b []Finding) bool {
	return len(a) == len(b) && len(a) > 0 && &a[0] == &b[0]
}

// findingsSize is about the encoded size of fs: its strings plus the
// member names and punctuation, so a buffer of that capacity rarely
// grows (escapes make a string longer).
func findingsSize(fs []Finding) int {
	n := 2
	for i := range fs {
		t := &fs[i].Threat
		n += 121 + len(fs[i].App1) + len(fs[i].App2) + len(t.Kind) + len(t.Class) +
			len(t.Rule1) + len(t.Rule2) + len(t.Property) + len(t.Note) + len(t.Text)
	}
	return n
}
