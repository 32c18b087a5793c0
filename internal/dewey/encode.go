package dewey

import "fmt"

// Binary encoding of Dewey IDs.
//
// Each component is encoded big-endian in 1–5 bytes; the top three bits of
// the first byte give the encoding length, and encodings are canonical
// (shortest form only). Because the length tag grows with the value and the
// value ranges of the different lengths are disjoint, the encoding is
// order-preserving: bytes.Compare on two encoded IDs equals Compare on the
// IDs, and an encoded ancestor is a byte prefix of its encoded descendants.
// This is what lets skip indexes and postings compare keys without
// decoding, and it keeps the common case (small sibling ordinals, as the
// paper observes in Section 4.2.1) at one byte per component.
//
// Layout of the first byte (x = value bits):
//
//	0xxxxxxx                 1 byte,  values [0, 2^7)
//	10xxxxxx + 1 byte        2 bytes, values [2^7, 2^7+2^14)
//	110xxxxx + 2 bytes       3 bytes, values [2^7+2^14, 2^7+2^14+2^21)
//	1110xxxx + 3 bytes       4 bytes, ...
//	1111xxxx + 4 bytes       5 bytes, remaining uint32 range
//
// Offsetting each range by the capacity of the shorter ones keeps the
// encoding canonical and the ranges disjoint.

const (
	lim1 = 1 << 7
	lim2 = lim1 + 1<<14
	lim3 = lim2 + 1<<21
	lim4 = lim3 + 1<<28
)

// EncodedLen returns the number of bytes Append would write for id.
func EncodedLen(id ID) int {
	n := 0
	for _, c := range id {
		n += componentLen(c)
	}
	return n
}

func componentLen(c uint32) int {
	switch {
	case c < lim1:
		return 1
	case c < lim2:
		return 2
	case c < lim3:
		return 3
	case c < lim4:
		return 4
	default:
		return 5
	}
}

// Append appends the order-preserving encoding of id to buf and returns the
// extended slice.
func Append(buf []byte, id ID) []byte {
	for _, c := range id {
		buf = appendComponent(buf, c)
	}
	return buf
}

func appendComponent(buf []byte, c uint32) []byte {
	switch {
	case c < lim1:
		return append(buf, byte(c))
	case c < lim2:
		v := c - lim1
		return append(buf, 0x80|byte(v>>8), byte(v))
	case c < lim3:
		v := c - lim2
		return append(buf, 0xC0|byte(v>>16), byte(v>>8), byte(v))
	case c < lim4:
		v := c - lim3
		return append(buf, 0xE0|byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
	default:
		v := uint64(c) - lim4
		return append(buf, 0xF0|byte(v>>32), byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
	}
}

// Encode returns the order-preserving encoding of id.
func Encode(id ID) []byte {
	return Append(make([]byte, 0, EncodedLen(id)), id)
}

// Decode parses an encoded ID occupying all of buf.
func Decode(buf []byte) (ID, error) {
	id := make(ID, 0, len(buf))
	for len(buf) > 0 {
		c, n, err := decodeComponent(buf)
		if err != nil {
			return nil, err
		}
		id = append(id, c)
		buf = buf[n:]
	}
	return id, nil
}

// DecodeInto parses an encoded ID occupying all of buf, appending components
// to dst (which is reset to length zero first) to avoid allocation in hot
// loops. It returns the extended dst.
func DecodeInto(dst ID, buf []byte) (ID, error) {
	return AppendDecoded(dst[:0], buf)
}

// AppendDecoded decodes the components in buf and appends them to dst
// without resetting it — the primitive behind prefix-compressed postings,
// where a stored suffix extends a shared prefix.
func AppendDecoded(dst ID, buf []byte) (ID, error) {
	for len(buf) > 0 {
		// One- and two-byte components — small sibling ordinals and
		// document numbers — inline.
		b0 := buf[0]
		if b0 < 0x80 {
			dst = append(dst, uint32(b0))
			buf = buf[1:]
			continue
		}
		if b0 < 0xC0 && len(buf) >= 2 {
			dst = append(dst, lim1+(uint32(b0&0x3F)<<8|uint32(buf[1])))
			buf = buf[2:]
			continue
		}
		c, n, err := decodeComponent(buf)
		if err != nil {
			return dst, err
		}
		dst = append(dst, c)
		buf = buf[n:]
	}
	return dst, nil
}

func decodeComponent(buf []byte) (uint32, int, error) {
	b0 := buf[0]
	switch {
	case b0 < 0x80:
		return uint32(b0), 1, nil
	case b0 < 0xC0:
		if len(buf) < 2 {
			return 0, 0, fmt.Errorf("dewey: truncated 2-byte component")
		}
		return lim1 + (uint32(b0&0x3F)<<8 | uint32(buf[1])), 2, nil
	case b0 < 0xE0:
		if len(buf) < 3 {
			return 0, 0, fmt.Errorf("dewey: truncated 3-byte component")
		}
		return lim2 + (uint32(b0&0x1F)<<16 | uint32(buf[1])<<8 | uint32(buf[2])), 3, nil
	case b0 < 0xF0:
		if len(buf) < 4 {
			return 0, 0, fmt.Errorf("dewey: truncated 4-byte component")
		}
		return lim3 + (uint32(b0&0x0F)<<24 | uint32(buf[1])<<16 | uint32(buf[2])<<8 | uint32(buf[3])), 4, nil
	default:
		if len(buf) < 5 {
			return 0, 0, fmt.Errorf("dewey: truncated 5-byte component")
		}
		v := uint64(b0&0x0F)<<32 | uint64(buf[1])<<24 | uint64(buf[2])<<16 | uint64(buf[3])<<8 | uint64(buf[4])
		v += lim4
		if v > 0xFFFFFFFF {
			return 0, 0, fmt.Errorf("dewey: component overflows uint32")
		}
		return uint32(v), 5, nil
	}
}

// NumComponents returns how many components the encoded ID in buf holds,
// without materializing them. It returns an error on a truncated encoding.
func NumComponents(buf []byte) (int, error) {
	n := 0
	for len(buf) > 0 {
		_, w, err := decodeComponent(buf)
		if err != nil {
			return 0, err
		}
		buf = buf[w:]
		n++
	}
	return n, nil
}
