// Package codec implements a Snappy-style LZ77 byte compressor: greedy
// hash-table matching, literal runs and (offset, length) copies. It backs
// apps.SnappyDecompressFile in examples/analytics — a real codec, so that
// pipeline moves real data through the filesystem. (Figure 10's Snappy
// app charges calibrated compute instead.)
//
// Format: a varint-encoded uncompressed length, then a tag stream.
// Tag byte low 2 bits: 0 = literal (upper bits+1 = length, lengths > 60
// use extension bytes like Snappy), 1 = copy with 1-byte offset…
// simplified here to two tags: literal and copy with varint offset/len.
package codec

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// ErrCorrupt reports malformed compressed input.
var ErrCorrupt = errors.New("codec: corrupt input")

const (
	tagLiteral = 0
	tagCopy    = 1

	minMatch  = 4
	hashBits  = 14
	hashSize  = 1 << hashBits
	maxOffset = 1 << 16
)

func hash4(v uint32) uint32 {
	return (v * 0x1e35a7bd) >> (32 - hashBits)
}

func load32(b []byte, i int) uint32 {
	return binary.LittleEndian.Uint32(b[i:])
}

// MaxEncodedLen bounds the compressed size of n input bytes.
func MaxEncodedLen(n int) int {
	return 10 + n + n/6 + 16
}

// Compress appends the compressed form of src to dst and returns it.
func Compress(dst, src []byte) []byte {
	var hdr [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(hdr[:], uint64(len(src)))
	dst = append(dst, hdr[:n]...)
	if len(src) == 0 {
		return dst
	}

	var table [hashSize]int32
	for i := range table {
		table[i] = -1
	}
	litStart := 0
	i := 0
	for i+minMatch <= len(src) {
		h := hash4(load32(src, i))
		cand := table[h]
		table[h] = int32(i)
		if cand >= 0 && i-int(cand) < maxOffset && load32(src, int(cand)) == load32(src, i) {
			// Emit pending literals.
			dst = emitLiteral(dst, src[litStart:i])
			// Extend the match.
			m := int(cand)
			length := minMatch
			for i+length < len(src) && src[m+length] == src[i+length] {
				length++
			}
			dst = emitCopy(dst, i-m, length)
			i += length
			litStart = i
			continue
		}
		i++
	}
	dst = emitLiteral(dst, src[litStart:])
	return dst
}

func emitLiteral(dst, lit []byte) []byte {
	if len(lit) == 0 {
		return dst
	}
	var b [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(b[:], uint64(len(lit))<<1|tagLiteral)
	dst = append(dst, b[:n]...)
	return append(dst, lit...)
}

func emitCopy(dst []byte, offset, length int) []byte {
	var b [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(b[:], uint64(length)<<1|tagCopy)
	dst = append(dst, b[:n]...)
	n = binary.PutUvarint(b[:], uint64(offset))
	return append(dst, b[:n]...)
}

// DecodedLen returns the uncompressed length stored in src.
func DecodedLen(src []byte) (int, error) {
	v, n := binary.Uvarint(src)
	if n <= 0 || v > math.MaxInt {
		return 0, ErrCorrupt
	}
	return int(v), nil
}

// Decompress decodes src into a fresh buffer.
func Decompress(src []byte) ([]byte, error) {
	total, err := DecodedLen(src)
	if err != nil {
		return nil, err
	}
	_, hn := binary.Uvarint(src)
	src = src[hn:]
	// The header is untrusted: reserve at most what the input could hold
	// as literals, let copies grow out by append, and reject any tag that
	// would write past the header's length.
	out := make([]byte, 0, min(total, len(src)))
	for len(src) > 0 {
		v, n := binary.Uvarint(src)
		if n <= 0 {
			return nil, ErrCorrupt
		}
		src = src[n:]
		length := int(v >> 1)
		switch v & 1 {
		case tagLiteral:
			if length > len(src) || length > total-len(out) {
				return nil, ErrCorrupt
			}
			out = append(out, src[:length]...)
			src = src[length:]
		case tagCopy:
			off64, n := binary.Uvarint(src)
			if n <= 0 {
				return nil, ErrCorrupt
			}
			src = src[n:]
			offset := int(off64)
			if offset <= 0 || offset > len(out) || length < minMatch || length > total-len(out) {
				return nil, ErrCorrupt
			}
			// Overlapping copies are legal (RLE-style).
			for k := 0; k < length; k++ {
				out = append(out, out[len(out)-offset])
			}
		}
	}
	if len(out) != total {
		return nil, fmt.Errorf("%w: decoded %d bytes, header says %d", ErrCorrupt, len(out), total)
	}
	return out, nil
}
