package httpapi

import (
	"strconv"
	"sync"
	"unicode/utf8"

	"xrank"
)

// appendSearchBody appends one /api/search reply: the envelope object,
// then a newline. The keys come in encoding/json's sorted map-key order
// and every value is encoded as encoding/json encodes it (HTML-safe
// strings, invalid UTF-8 as U+FFFD), so the body is byte-identical to
// json.NewEncoder(w).Encode of the equivalent map[string]interface{}.
// resultsJSON is the results array already encoded: the result cache's
// shared bytes on a hit, json.Marshal of the fresh results otherwise.
//
// coalesced, failed_shards and switch_reason appear only when set
// (coalesced, degraded and switched respectively).
func appendSearchBody(b []byte, q string, stats *xrank.QueryStats, resultsJSON []byte) []byte {
	b = append(b, `{"algorithm":`...)
	b = appendJSONString(b, stats.Algorithm.String())
	b = append(b, `,"cache_hits":`...)
	b = strconv.AppendInt(b, stats.IO.CacheHits, 10)
	b = append(b, `,"cached":`...)
	b = strconv.AppendBool(b, stats.Cached)
	if stats.Coalesced {
		b = append(b, `,"coalesced":true`...)
	}
	b = append(b, `,"degraded":`...)
	b = strconv.AppendBool(b, stats.Degraded)
	if stats.Degraded {
		b = append(b, `,"failed_shards":`...)
		if stats.FailedShards == nil {
			b = append(b, "null"...)
		} else {
			b = append(b, '[')
			for i, s := range stats.FailedShards {
				if i > 0 {
					b = append(b, ',')
				}
				b = strconv.AppendInt(b, int64(s), 10)
			}
			b = append(b, ']')
		}
	}
	b = append(b, `,"io_reads":`...)
	b = strconv.AppendInt(b, stats.IO.Reads, 10)
	b = append(b, `,"query":`...)
	b = appendJSONString(b, q)
	b = append(b, `,"ranked_entries":`...)
	b = strconv.AppendInt(b, int64(stats.RankedEntriesRead), 10)
	b = append(b, `,"results":`...)
	b = append(b, resultsJSON...)
	b = append(b, `,"shards":`...)
	b = strconv.AppendInt(b, int64(stats.Shards), 10)
	if stats.SwitchedToDIL {
		b = append(b, `,"switch_reason":`...)
		b = appendJSONString(b, stats.SwitchReason)
	}
	b = append(b, `,"switched":`...)
	b = strconv.AppendBool(b, stats.SwitchedToDIL)
	b = append(b, `,"wall_us":`...)
	b = strconv.AppendInt(b, stats.WallTime.Microseconds(), 10)
	return append(b, "}\n"...)
}

// appendJSONString appends s as a JSON string exactly as encoding/json
// writes it with HTML escaping on (its default): `<`, `>` and `&` become
// \u003c, \u003e and \u0026, control bytes use the short escapes \b \f
// \n \r \t or \u00XX, each invalid UTF-8 byte becomes \ufffd, and U+2028
// and U+2029 are escaped.
func appendJSONString(b []byte, s string) []byte {
	const hex = "0123456789abcdef"
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '\\', '"':
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
		if r == utf8.RuneError && size == 1 {
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
			i += size
			start = i
			continue
		}
		if r == '\u2028' || r == '\u2029' {
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hex[r&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}

// maxPooledBody bounds the reply buffers kept for reuse: a rare
// thousand-result reply is not held for the life of the process.
const maxPooledBody = 64 << 10

// bodyPool recycles /api/search reply buffers. A buffer goes back once
// ResponseWriter.Write has returned, which has copied or sent its bytes.
var bodyPool = sync.Pool{New: func() any { return new([]byte) }}
