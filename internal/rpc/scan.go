package rpc

import (
	"bytes"
	"encoding/json"
	"strconv"
	"unicode/utf8"

	"homeguard/internal/api"
)

// The edge's per-request JSON, read and written without reflection: the
// frame headers and the gateway's routing key. The readers take the
// shapes this package writes and the plain text those shapes carry; on
// anything else they report false and the caller hands the input to
// encoding/json, so what is accepted, what is rejected and every error
// message stay encoding/json's.

// appendJSON appends the header's encoding, the bytes json.Marshal
// writes for it.
func (h *reqHeader) appendJSON(dst []byte) []byte {
	dst = append(dst, `{"method":`...)
	dst = api.AppendString(dst, h.Method)
	if h.Key != "" {
		dst = append(dst, `,"key":`...)
		dst = api.AppendString(dst, h.Key)
	}
	if h.DeadlineMs != 0 {
		dst = append(dst, `,"deadlineMs":`...)
		dst = strconv.AppendInt(dst, h.DeadlineMs, 10)
	}
	return append(dst, '}')
}

// appendJSON appends the header's encoding, the bytes json.Marshal
// writes for it.
func (h *resHeader) appendJSON(dst []byte) []byte {
	dst = append(dst, `{"status":`...)
	dst = strconv.AppendInt(dst, int64(h.Status), 10)
	if h.Error != nil {
		dst = append(dst, `,"error":`...)
		dst = h.Error.AppendJSON(dst)
	}
	return append(dst, '}')
}

// decodeReqHeader reads a REQ header into hdr: the canonical form the
// Client writes by scanning it, any other by json.Unmarshal.
func decodeReqHeader(b []byte, hdr *reqHeader) error {
	if scanReqHeader(b, hdr) {
		return nil
	}
	*hdr = reqHeader{}
	return json.Unmarshal(b, hdr)
}

// scanReqHeader reads a header of the canonical form
// {"method":…[,"key":…][,"deadlineMs":…]}: the members in that order,
// no space, plain strings (see plainString) and a deadline of at most
// 18 digits. It reports false, with hdr partly written, on any other
// input.
func scanReqHeader(b []byte, hdr *reqHeader) bool {
	b, ok := bytes.CutPrefix(b, []byte(`{"method":`))
	if !ok {
		return false
	}
	var s []byte
	if s, b, ok = plainString(b); !ok {
		return false
	}
	hdr.Method = string(s)
	if rest, found := bytes.CutPrefix(b, []byte(`,"key":`)); found {
		if s, b, ok = plainString(rest); !ok {
			return false
		}
		hdr.Key = string(s)
	}
	if rest, found := bytes.CutPrefix(b, []byte(`,"deadlineMs":`)); found {
		if hdr.DeadlineMs, b, ok = scanDeadline(rest); !ok {
			return false
		}
	}
	return string(b) == "}"
}

// scanDeadline reads the non-negative integer at the start of b, in
// JSON's form (no leading zero) and short enough that it cannot
// overflow an int64.
func scanDeadline(b []byte) (int64, []byte, bool) {
	var v int64
	n := 0
	for ; n < len(b) && '0' <= b[n] && b[n] <= '9'; n++ {
		v = v*10 + int64(b[n]-'0')
	}
	if n == 0 || n > 18 || (b[0] == '0' && n > 1) {
		return 0, b, false
	}
	return v, b[n:], true
}

// plainString reads the JSON string at the start of b when its text is
// plain: printable ASCII with no escape, so the bytes between the
// quotes are the decoded value. It returns that text and the rest of b.
func plainString(b []byte) (s, rest []byte, ok bool) {
	if len(b) == 0 || b[0] != '"' {
		return nil, b, false
	}
	for i := 1; i < len(b); i++ {
		switch c := b[i]; {
		case c == '"':
			return b[1:i], b[i+1:], true
		case c < 0x20 || c == '\\' || c >= utf8.RuneSelf:
			return nil, b, false
		}
	}
	return nil, b, false
}

// scanRouteKey reads the top-level "home" of a request body the way
// json.Unmarshal into routeKey would, without decoding any other
// member: the value of every other member is only checked to be valid
// JSON, and its strings are not unescaped. It reports false when it
// cannot decide, and the caller decodes: a body that is not one JSON
// object with at least one member, or that has a syntax error, a
// member named "home" other than in lower case, a member name with an
// escape or a non-ASCII byte, a home that is not a plain string (see
// plainString; a null too), or nesting deeper than maxSkipDepth.
func scanRouteKey(b []byte) (home string, ok bool) {
	b = skipSpace(b)
	if len(b) == 0 || b[0] != '{' {
		return "", false
	}
	b = skipSpace(b[1:])
	for {
		var name, s []byte
		if name, b, ok = plainString(b); !ok {
			return "", false
		}
		if b = skipSpace(b); len(b) == 0 || b[0] != ':' {
			return "", false
		}
		b = skipSpace(b[1:])
		switch {
		case string(name) == "home":
			if s, b, ok = plainString(b); !ok {
				return "", false
			}
			home = string(s)
		case bytes.EqualFold(name, []byte("home")):
			return "", false
		default:
			if b, ok = skipValue(b); !ok {
				return "", false
			}
		}
		if b = skipSpace(b); len(b) == 0 {
			return "", false
		}
		switch b[0] {
		case ',':
			b = skipSpace(b[1:])
		case '}':
			return home, len(skipSpace(b[1:])) == 0
		default:
			return "", false
		}
	}
}

// maxSkipDepth bounds the nesting skipValue follows; deeper input is
// left to encoding/json.
const maxSkipDepth = 64

// skipValue skips the JSON value at the start of b, checking its
// syntax as encoding/json does, and returns the rest of b. It reports
// false on a syntax error or nesting deeper than maxSkipDepth.
func skipValue(b []byte) ([]byte, bool) {
	var objects uint64 // bit d: the container at depth d+1 is an object
	depth := 0
	ok := false
	for {
		// One value.
		if len(b) == 0 {
			return b, false
		}
		switch c := b[0]; {
		case c == '{' || c == '[':
			if depth == maxSkipDepth {
				return b, false
			}
			objects &^= 1 << depth
			if c == '{' {
				objects |= 1 << depth
			}
			depth++
			if b = skipSpace(b[1:]); len(b) > 0 && b[0] == c+2 { // '}' and ']' are '{'+2 and '['+2
				b = b[1:]
				depth--
				break
			}
			if c == '{' {
				if b, ok = skipMemberName(b); !ok {
					return b, false
				}
			}
			continue
		case c == '"':
			if b, ok = skipString(b); !ok {
				return b, false
			}
		case c == 't':
			if b, ok = bytes.CutPrefix(b, []byte("true")); !ok {
				return b, false
			}
		case c == 'f':
			if b, ok = bytes.CutPrefix(b, []byte("false")); !ok {
				return b, false
			}
		case c == 'n':
			if b, ok = bytes.CutPrefix(b, []byte("null")); !ok {
				return b, false
			}
		default:
			if b, ok = skipNumber(b); !ok {
				return b, false
			}
		}
		// After a value: close finished containers, then either the
		// whole value is done or the next element follows.
		for {
			if depth == 0 {
				return b, true
			}
			b = skipSpace(b)
			if len(b) == 0 {
				return b, false
			}
			object := objects&(1<<(depth-1)) != 0
			if (object && b[0] == '}') || (!object && b[0] == ']') {
				b = b[1:]
				depth--
				continue
			}
			if b[0] != ',' {
				return b, false
			}
			b = skipSpace(b[1:])
			if object {
				if b, ok = skipMemberName(b); !ok {
					return b, false
				}
			}
			break
		}
	}
}

// skipMemberName skips an object member's name, the colon and the
// space up to its value.
func skipMemberName(b []byte) ([]byte, bool) {
	if len(b) == 0 || b[0] != '"' {
		return b, false
	}
	b, ok := skipString(b)
	if !ok {
		return b, false
	}
	if b = skipSpace(b); len(b) == 0 || b[0] != ':' {
		return b, false
	}
	return skipSpace(b[1:]), true
}

// skipString skips the JSON string at the start of b (b[0] is its
// opening quote): no control byte, only JSON's escapes. Bytes from
// 0x80 up pass unchecked, as encoding/json takes invalid UTF-8.
func skipString(b []byte) ([]byte, bool) {
	for i := 1; i < len(b); i++ {
		switch c := b[i]; {
		case c == '"':
			return b[i+1:], true
		case c < 0x20:
			return b, false
		case c == '\\':
			if i++; i == len(b) {
				return b, false
			}
			switch b[i] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
			case 'u':
				if i+4 >= len(b) {
					return b, false
				}
				for _, h := range b[i+1 : i+5] {
					if !isHex(h) {
						return b, false
					}
				}
				i += 4
			default:
				return b, false
			}
		}
	}
	return b, false
}

func isHex(c byte) bool {
	return '0' <= c && c <= '9' || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F'
}

// skipNumber skips the JSON number at the start of b.
func skipNumber(b []byte) ([]byte, bool) {
	if len(b) > 0 && b[0] == '-' {
		b = b[1:]
	}
	switch {
	case len(b) == 0:
		return b, false
	case b[0] == '0':
		b = b[1:]
	case '1' <= b[0] && b[0] <= '9':
		b = skipDigits(b)
	default:
		return b, false
	}
	if len(b) > 0 && b[0] == '.' {
		rest := skipDigits(b[1:])
		if len(rest) == len(b)-1 {
			return b, false
		}
		b = rest
	}
	if len(b) > 0 && (b[0] == 'e' || b[0] == 'E') {
		b = b[1:]
		if len(b) > 0 && (b[0] == '+' || b[0] == '-') {
			b = b[1:]
		}
		rest := skipDigits(b)
		if len(rest) == len(b) {
			return b, false
		}
		b = rest
	}
	return b, true
}

func skipDigits(b []byte) []byte {
	for len(b) > 0 && '0' <= b[0] && b[0] <= '9' {
		b = b[1:]
	}
	return b
}

// skipSpace skips JSON whitespace.
func skipSpace(b []byte) []byte {
	for len(b) > 0 && (b[0] == ' ' || b[0] == '\t' || b[0] == '\n' || b[0] == '\r') {
		b = b[1:]
	}
	return b
}
