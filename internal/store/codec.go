package store

import (
	"bytes"
	"errors"
	"hash/crc32"
	"math"
	"math/bits"
	"strconv"
	"unicode/utf8"

	"flexos/internal/scenario"
)

// The record codec: the one encoder and decoder of segment record
// lines. A line is exactly what encoding/json's Marshal makes of
//
//	struct {
//		Addr    string           `json:"addr"`
//		Key     string           `json:"key"`
//		Metrics scenario.Metrics `json:"metrics"`
//		Sum     string           `json:"sum"`
//	}
//
// followed by a newline: the fields in that order, the metrics fields in
// struct order, strings escaped and floats formatted as Marshal does.
// The decoder accepts only that canonical form, so the metrics bytes of
// an accepted line are the canonical JSON the checksum covers and are
// checksummed in place. A line it does not accept is damaged; every
// line it accepts, encoding/json decodes to the same key and vector.

// Fixed parts of a record line, in order.
const (
	litAddr    = `{"addr":"`
	litKey     = `","key":`
	litMetrics = `,"metrics":`
	litSum     = `,"sum":"`
	litEnd     = `"}`
)

// metricNames opens each metrics field, in scenario.Metrics order;
// the first also opens the object.
var metricNames = [...]string{
	`{"Throughput":`, `,"P50us":`, `,"P99us":`, `,"MaxUs":`, `,"PeakMemBytes":`,
	`,"BootCycles":`, `,"Cycles":`, `,"Ops":`, `,"Crossings":`, `,"Survival":`,
}

const hexDigits = "0123456789abcdef"

// fnv64a is the 64-bit FNV-1a digest, the content address of a key.
func fnv64a[T string | []byte](s T) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// appendHex appends the low digits hex digits of v, zero-padded.
func appendHex(b []byte, v uint64, digits int) []byte {
	for i := digits - 1; i >= 0; i-- {
		b = append(b, hexDigits[v>>(4*uint(i))&0xf])
	}
	return b
}

// parseHex parses lowercase hex digits, as appendHex writes them.
func parseHex(b []byte) (uint64, bool) {
	var v uint64
	for _, c := range b {
		switch {
		case '0' <= c && c <= '9':
			v = v<<4 | uint64(c-'0')
		case 'a' <= c && c <= 'f':
			v = v<<4 | uint64(c-'a'+10)
		default:
			return 0, false
		}
	}
	return v, true
}

// checksum is a record's CRC-32 (IEEE) over its address, its key and
// the canonical JSON of its vector, NUL-separated; prefix holds the
// first four parts.
func checksum(prefix, metrics []byte) uint32 {
	return crc32.Update(crc32.ChecksumIEEE(prefix), crc32.IEEETable, metrics)
}

// appendRecord appends the segment line of one measurement, newline
// included. It fails only on a NaN or infinite metric, which JSON
// cannot carry.
func appendRecord(b []byte, key string, m *scenario.Metrics) ([]byte, error) {
	floats := [...]float64{m.Throughput, m.P50us, m.P99us, m.MaxUs, m.Survival}
	for _, f := range floats {
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return b, errUnsupported
		}
	}
	b = append(b, litAddr...)
	addr := len(b)
	b = appendHex(b, fnv64a(key), 16)
	b = append(b, litKey...)
	b = appendString(b, key)
	b = append(b, litMetrics...)
	metrics := len(b)
	for i, f := range floats[:4] {
		b = appendFloat(append(b, metricNames[i]...), f)
	}
	b = strconv.AppendUint(append(b, metricNames[4]...), m.PeakMemBytes, 10)
	b = strconv.AppendUint(append(b, metricNames[5]...), m.BootCycles, 10)
	b = strconv.AppendUint(append(b, metricNames[6]...), m.Cycles, 10)
	b = strconv.AppendInt(append(b, metricNames[7]...), int64(m.Ops), 10)
	b = strconv.AppendUint(append(b, metricNames[8]...), m.Crossings, 10)
	b = appendFloat(append(b, metricNames[9]...), m.Survival)
	b = append(b, '}')
	// The checksum covers the raw key: stage the address, the key and
	// their NULs past the line's end.
	end := len(b)
	b = append(append(b, b[addr:addr+16]...), 0)
	b = append(append(b, key...), 0)
	sum := checksum(b[end:], b[metrics:end])
	b = append(b[:end], litSum...)
	b = appendHex(b, uint64(sum), 8)
	return append(b, litEnd+"\n"...), nil
}

var errUnsupported = errors.New("store: a NaN or infinite metric has no JSON form")

// appendFloat appends a finite f as encoding/json writes a float64: the
// shortest round-trip digits, in exponent form below 1e-6 and from 1e21
// up, with a one-digit negative exponent unpadded.
func appendFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if n := len(b); format == 'e' && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b
}

// appendString appends s as a JSON string the way encoding/json writes
// it: quotes, backslashes, control bytes and <, >, & escaped, invalid
// UTF-8 replaced by U+FFFD, and U+2028 and U+2029 escaped.
func appendString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
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
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xf])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		if r == utf8.RuneError && size == 1 || r == '\u2028' || r == '\u2029' {
			b = append(b, s[start:i]...)
			if size == 1 {
				b = append(b, `\ufffd`...)
			} else {
				b = append(b, '\\', 'u', '2', '0', '2', hexDigits[r&0xf])
			}
			start = i + size
		}
		i += size
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}

// lineDecoder decodes record lines, reusing one buffer for each line's
// checksummed prefix.
type lineDecoder struct {
	prefix []byte
}

// decode parses and checks one record line (without its newline). It
// returns the record's key bytes, valid until the next call, and
// reports false for any line appendRecord would not have written for
// that key and vector: a different layout or number spelling, a wrong
// address or checksum, a truncated line.
func (d *lineDecoder) decode(line []byte) (key []byte, m scenario.Metrics, ok bool) {
	p, ok := cut(line, litAddr)
	if !ok || len(p) < 16 {
		return nil, m, false
	}
	addr, addrOK := parseHex(p[:16])
	d.prefix = append(append(d.prefix[:0], p[:16]...), 0)
	if p, ok = cut(p[16:], litKey); !ok {
		return nil, m, false
	}
	if d.prefix, p, ok = unquote(d.prefix, p); !ok {
		return nil, m, false
	}
	d.prefix = append(d.prefix, 0)
	key = d.prefix[17 : len(d.prefix)-1]
	if p, ok = cut(p, litMetrics); !ok {
		return nil, m, false
	}
	metrics := p
	floats := [...]*float64{&m.Throughput, &m.P50us, &m.P99us, &m.MaxUs}
	for i, f := range floats {
		if *f, p, ok = parseFloat(p, metricNames[i]); !ok {
			return nil, m, false
		}
	}
	uints := [...]*uint64{&m.PeakMemBytes, &m.BootCycles, &m.Cycles}
	for i, u := range uints {
		if *u, p, ok = parseUint(p, metricNames[4+i]); !ok {
			return nil, m, false
		}
	}
	if m.Ops, p, ok = parseInt(p, metricNames[7]); !ok {
		return nil, m, false
	}
	if m.Crossings, p, ok = parseUint(p, metricNames[8]); !ok {
		return nil, m, false
	}
	if m.Survival, p, ok = parseFloat(p, metricNames[9]); !ok {
		return nil, m, false
	}
	if p, ok = cut(p, "}"); !ok {
		return nil, m, false
	}
	metrics = metrics[:len(metrics)-len(p)]
	if p, ok = cut(p, litSum); !ok || len(p) != 8+len(litEnd) || string(p[8:]) != litEnd {
		return nil, m, false
	}
	if sum, ok := parseHex(p[:8]); !ok || sum != uint64(checksum(d.prefix, metrics)) {
		return nil, m, false
	}
	if !addrOK || addr != fnv64a(key) {
		return nil, m, false
	}
	return key, m, true
}

// cut removes the literal prefix lit from p.
func cut(p []byte, lit string) ([]byte, bool) {
	if len(p) < len(lit) || string(p[:len(lit)]) != lit {
		return p, false
	}
	return p[len(lit):], true
}

// unquote appends the JSON string that opens p to dst, and returns the
// rest of p after the closing quote. It accepts the escapes
// encoding/json reads except UTF-16 surrogates, which appendString
// never writes, and rejects raw control bytes and invalid UTF-8, which
// encoding/json would refuse or rewrite.
func unquote(dst, p []byte) ([]byte, []byte, bool) {
	p, ok := cut(p, `"`)
	for ok {
		end := bytes.IndexByte(p, '"')
		if end < 0 {
			return dst, p, false
		}
		run := p[:end]
		esc := bytes.IndexByte(run, '\\')
		if esc >= 0 {
			run = run[:esc]
		}
		if !plain(run) {
			return dst, p, false
		}
		dst = append(dst, run...)
		if esc < 0 {
			return dst, p[end+1:], true
		}
		dst, p, ok = unescape(dst, p[esc:])
	}
	return dst, p, false
}

// plain reports whether b may appear unescaped in a JSON string as
// encoding/json reads it unchanged: no control bytes, valid UTF-8.
func plain(b []byte) bool {
	var high byte
	for _, c := range b {
		if c < 0x20 {
			return false
		}
		high |= c
	}
	return high < utf8.RuneSelf || utf8.Valid(b)
}

// unescape appends the character of the escape that opens p to dst and
// returns the rest of p.
func unescape(dst, p []byte) ([]byte, []byte, bool) {
	if len(p) < 2 {
		return dst, p, false
	}
	switch e := p[1]; e {
	case '"', '\\', '/':
		return append(dst, e), p[2:], true
	case 'b':
		return append(dst, '\b'), p[2:], true
	case 'f':
		return append(dst, '\f'), p[2:], true
	case 'n':
		return append(dst, '\n'), p[2:], true
	case 'r':
		return append(dst, '\r'), p[2:], true
	case 't':
		return append(dst, '\t'), p[2:], true
	case 'u':
		if len(p) < 6 {
			return dst, p, false
		}
		r, err := strconv.ParseUint(string(p[2:6]), 16, 32)
		if err != nil || utf8.RuneLen(rune(r)) < 0 {
			return dst, p, false
		}
		return utf8.AppendRune(dst, rune(r)), p[6:], true
	}
	return dst, p, false
}

// digits returns the length of the run of decimal digits at the start
// of p.
func digits(p []byte) int {
	n := 0
	for n < len(p) && '0' <= p[n] && p[n] <= '9' {
		n++
	}
	return n
}

// parseUint parses the field opened by name whose value is an unsigned
// integer spelled as strconv.AppendUint spells it.
func parseUint(p []byte, name string) (uint64, []byte, bool) {
	p, ok := cut(p, name)
	n := digits(p)
	if !ok || n == 0 || n > 1 && p[0] == '0' {
		return 0, p, false
	}
	if n >= 20 { // may overflow
		v, err := strconv.ParseUint(string(p[:n]), 10, 64)
		return v, p[n:], err == nil
	}
	var v uint64
	for _, c := range p[:n] {
		v = v*10 + uint64(c-'0')
	}
	return v, p[n:], true
}

// parseInt parses the field opened by name whose value is an int
// spelled as strconv.AppendInt spells it.
func parseInt(p []byte, name string) (int, []byte, bool) {
	p, ok := cut(p, name)
	if !ok {
		return 0, p, false
	}
	neg := len(p) > 0 && p[0] == '-'
	if neg {
		p = p[1:]
	}
	v, p, ok := parseUint(p, "")
	switch {
	case !ok || neg && v == 0:
		return 0, p, false
	case neg:
		return -int(v-1) - 1, p, v-1 <= math.MaxInt
	}
	return int(v), p, v <= math.MaxInt
}

// pow10 holds the powers of ten a float64 represents exactly.
var pow10 = [...]float64{1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10,
	1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22}

// parseFloat parses the field opened by name whose value is a float64
// spelled exactly as appendFloat spells it.
func parseFloat(p []byte, name string) (float64, []byte, bool) {
	p, ok := cut(p, name)
	n := 0
	for n < len(p) && p[n] != ',' && p[n] != '}' {
		n++
	}
	if !ok || n > 32 {
		return 0, p, false
	}
	tok := p[:n]
	if mant, exp, neg, fixed := fixedPoint(tok); fixed {
		// The nearest float64 to the digits, scaled by an exact power
		// of ten: exact when mant < 2^53 (Clinger's fast path), else
		// within an ulp.
		f := float64(mant)
		if exp >= 0 {
			f *= pow10[exp]
		} else {
			f /= pow10[-exp]
		}
		// A decimal of at most 15 significant digits survives a round
		// trip through float64, so no shorter spelling reaches the same
		// value and this one is canonical; a longer one must be shown
		// the shortest, which also shows f is its nearest float64.
		if (f == 0 || f >= 1e-6 && f < 1e21) && (mant < 1e15 || shortest(f, mant, exp)) {
			if neg {
				f = -f
			}
			return f, p[n:], true
		}
	}
	f, err := strconv.ParseFloat(string(tok), 64)
	if err != nil || math.IsNaN(f) || math.IsInf(f, 0) {
		return 0, p, false
	}
	var buf [32]byte
	return f, p[n:], string(appendFloat(buf[:0], f)) == string(tok)
}

// fixedPoint reads tok as a fixed-point spelling without leading zeros
// or trailing fraction zeros, returning its value as mant·10^exp with
// mant free of trailing zeros and exp in [-22, 22]. It reports false
// for any other spelling, and for more significant digits than a
// uint64 holds.
func fixedPoint(tok []byte) (mant uint64, exp int, neg, ok bool) {
	neg = len(tok) > 0 && tok[0] == '-'
	if neg {
		tok = tok[1:]
	}
	intLen := digits(tok)
	whole, frac := tok[:intLen], tok[intLen:]
	if intLen == 0 || intLen > 1 && whole[0] == '0' {
		return 0, 0, false, false
	}
	if len(frac) > 0 {
		frac = frac[1:]
		if tok[intLen] != '.' || len(frac) == 0 || digits(frac) != len(frac) || frac[len(frac)-1] == '0' {
			return 0, 0, false, false
		}
	}
	// An integer's trailing zeros move to the exponent, a fraction's
	// leading zeros drop out.
	exp = -len(frac)
	if len(frac) == 0 {
		n := len(whole)
		for n > 1 && whole[n-1] == '0' {
			n--
		}
		exp, whole = len(whole)-n, whole[:n]
	}
	if whole[0] == '0' {
		whole = nil
		for len(frac) > 0 && frac[0] == '0' {
			frac = frac[1:]
		}
	}
	if len(whole)+len(frac) > 19 || exp < -22 || exp > 22 {
		return 0, 0, false, false
	}
	for _, c := range whole {
		mant = mant*10 + uint64(c-'0')
	}
	for _, c := range frac {
		mant = mant*10 + uint64(c-'0')
	}
	return mant, exp, neg, true
}

// shortest reports whether f > 0 is the float64 nearest to
// mant·10^exp (mant without trailing zeros) and mant's digits are the
// shortest spelling of f, the one appendFloat writes. That holds when
// the decimal lies strictly inside f's rounding interval, every decimal
// one digit shorter strictly outside, and the decimal is either the
// only one of its length inside or strictly the nearest to f. It
// compares exactly in 128-bit integers and reports false when it
// cannot decide.
func shortest(f float64, mant uint64, exp int) bool {
	// f = m·2^e2 with a 53-bit m; its rounding interval runs from
	// (4m-2)·2^(e2-2) (4m-1 just above a power of two) to (4m+2)·2^(e2-2).
	b := math.Float64bits(f)
	m, e2 := b&(1<<52-1)|1<<52, int(b>>52)-1075
	lo := 4*m - 2
	if m == 1<<52 {
		lo++
	}
	hi, s := 4*m+2, 2-e2
	// Order c·10^exp against B·2^(e2-2) as integers: c·2^s against
	// B·10^-exp for a fraction, c·10^exp against B·2^-s for an integer.
	var dec, bin func(uint64) u128
	var half u128 // half a unit of mant's last digit
	switch {
	case exp <= 0 && s >= 1 && -exp < len(pow10u):
		p := pow10u[-exp]
		dec = func(c uint64) u128 { return shl(c, s) }
		bin = func(b uint64) u128 { return mul(b, p) }
		half = shl(1, s-1)
	case exp > 0 && s < 0 && exp < len(pow10u):
		p := pow10u[exp]
		dec = func(c uint64) u128 { return mul(c, p) }
		bin = func(b uint64) u128 { return shl(b, -s) }
		half = mul(1, p/2)
	default:
		return false
	}
	l, u, v := bin(lo), bin(hi), dec(mant)
	if !less(l, v) || !less(v, u) {
		return false
	}
	if less(dec(mant-1), l) && less(u, dec(mant+1)) {
		return true // the only decimal of its length inside; shorter ones lie beyond
	}
	shorter := mant - mant%10
	if !less(dec(shorter), l) || !less(u, dec(shorter+10)) {
		return false
	}
	return less(diff(v, bin(4*m)), half)
}

// pow10u holds the powers of ten a uint64 holds.
var pow10u = [...]uint64{1, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10,
	1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19}

// u128 is an unsigned 128-bit integer; ok is false once a result
// overflowed.
type u128 struct {
	hi, lo uint64
	ok     bool
}

func mul(a, b uint64) u128 {
	hi, lo := bits.Mul64(a, b)
	return u128{hi, lo, true}
}

// shl returns a·2^s.
func shl(a uint64, s int) u128 {
	switch {
	case bits.Len64(a)+s > 128:
		return u128{}
	case s >= 64:
		return u128{a << (s - 64), 0, true}
	case s > 0:
		return u128{a >> (64 - s), a << s, true}
	}
	return u128{0, a, true}
}

// diff returns |a-b|.
func diff(a, b u128) u128 {
	if less(a, b) {
		a, b = b, a
	}
	lo, borrow := bits.Sub64(a.lo, b.lo, 0)
	hi, _ := bits.Sub64(a.hi, b.hi, borrow)
	return u128{hi, lo, a.ok && b.ok}
}

// less reports a < b, false when either overflowed.
func less(a, b u128) bool {
	return a.ok && b.ok && (a.hi < b.hi || a.hi == b.hi && a.lo < b.lo)
}
