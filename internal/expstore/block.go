package expstore

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"

	"tracerebase/internal/frame"
)

const (
	blockMagic  = "EXPB"
	footerMagic = "EXPF"

	blockHeaderCRCOff = 64
	// blockHeaderSize is the fixed header: its fields plus their CRC.
	blockHeaderSize = blockHeaderCRCOff + 4
)

// blockHeader is the decoded form of the fixed block header.
//
// On-disk layout (all integers little-endian):
//
//	[0:4)    magic "EXPB"
//	[4:8)    format version (u32)
//	[8:40)   schema key (32 bytes)
//	[40:48)  cell count (u64)
//	[48:56)  footer offset (u64)
//	[56:64)  footer length (u64)
//	[64:68)  CRC-32C of bytes [0:64) (u32)
//
// The column data regions follow back to back in schema order, and the
// frame-encoded footer closes the file.
type blockHeader struct {
	cells     int
	footerOff int64
	footerLen int64
}

func encodeBlockHeader(h blockHeader) []byte {
	buf := make([]byte, blockHeaderSize)
	copy(buf[0:4], blockMagic)
	binary.LittleEndian.PutUint32(buf[4:8], FormatVersion)
	copy(buf[8:40], schemaKey[:])
	binary.LittleEndian.PutUint64(buf[40:48], uint64(h.cells))
	binary.LittleEndian.PutUint64(buf[48:56], uint64(h.footerOff))
	binary.LittleEndian.PutUint64(buf[56:64], uint64(h.footerLen))
	crc := frame.Checksum(buf[:blockHeaderCRCOff])
	binary.LittleEndian.PutUint32(buf[blockHeaderCRCOff:], crc)
	return buf
}

// blockVerdict classifies a parsed block header, mirroring the tracestore
// trichotomy.
type blockVerdict int

const (
	blockOK blockVerdict = iota
	// blockCorrupt: the file is damaged (bad magic, CRC, or impossible
	// geometry) — remove it; the cells re-appear on the next sweep.
	blockCorrupt
	// blockForeign: intact but written by another format version or
	// schema — skip it, never delete it.
	blockForeign
)

func parseBlockHeader(buf []byte, fileSize int64) (blockHeader, blockVerdict) {
	var h blockHeader
	if len(buf) < blockHeaderSize || string(buf[0:4]) != blockMagic {
		return h, blockCorrupt
	}
	crc := frame.Checksum(buf[:blockHeaderCRCOff])
	if binary.LittleEndian.Uint32(buf[blockHeaderCRCOff:]) != crc {
		return h, blockCorrupt
	}
	if binary.LittleEndian.Uint32(buf[4:8]) != FormatVersion {
		return h, blockForeign
	}
	if !bytes.Equal(buf[8:40], schemaKey[:]) {
		return h, blockForeign
	}
	cells := binary.LittleEndian.Uint64(buf[40:48])
	fOff := binary.LittleEndian.Uint64(buf[48:56])
	fLen := binary.LittleEndian.Uint64(buf[56:64])
	if cells == 0 || cells > math.MaxInt32 ||
		fOff < blockHeaderSize || fLen < frame.MinRecordSize ||
		fOff > uint64(fileSize) || fLen > uint64(fileSize) ||
		fOff+fLen != uint64(fileSize) {
		return h, blockCorrupt
	}
	h.cells = int(cells)
	h.footerOff = int64(fOff)
	h.footerLen = int64(fLen)
	return h, blockOK
}

// KeyBytes is the width of a cell content key.
const KeyBytes = 32

// encodeBlock lays out a non-empty batch of cells as one complete block
// file image, in the order given.
//
// The footer is a frame.Encode record (magic "EXPF", the schema key)
// whose payload is:
//
//	u32 CRC-32C of the column data regions (little-endian)
//	per column, in schema order:
//	  uv  data region length
//	  dict columns only: uv n, then n × (uv length, bytes), in order of
//	  first appearance; the data region indexes this list
func encodeBlock(cells []Cell) []byte {
	var data, foot []byte
	for i := range columns {
		c := &columns[i]
		start := len(data)
		var dict []string
		switch c.kind {
		case kindDict:
			idx := make(map[string]uint64)
			for k := range cells {
				s := *c.str(&cells[k])
				j, ok := idx[s]
				if !ok {
					j = uint64(len(dict))
					idx[s] = j
					dict = append(dict, s)
				}
				data = binary.AppendUvarint(data, j)
			}
		case kindUint:
			var prev uint64
			for k := range cells {
				v := *c.u64(&cells[k])
				data = binary.AppendUvarint(data, zigzag(v-prev))
				prev = v
			}
		case kindFloat:
			for k := range cells {
				data = binary.LittleEndian.AppendUint64(data, math.Float64bits(*c.f64(&cells[k])))
			}
		case kindKey:
			for k := range cells {
				data = append(data, c.ckey(&cells[k])[:]...)
			}
		}
		foot = binary.AppendUvarint(foot, uint64(len(data)-start))
		if c.kind == kindDict {
			foot = binary.AppendUvarint(foot, uint64(len(dict)))
			for _, s := range dict {
				foot = binary.AppendUvarint(foot, uint64(len(s)))
				foot = append(foot, s...)
			}
		}
	}
	payload := binary.LittleEndian.AppendUint32(nil, frame.Checksum(data))
	footer := frame.Encode(footerMagic, FormatVersion, schemaKey, append(payload, foot...))
	h := blockHeader{
		cells:     len(cells),
		footerOff: int64(blockHeaderSize + len(data)),
		footerLen: int64(len(footer)),
	}
	out := make([]byte, 0, blockHeaderSize+len(data)+len(footer))
	out = append(out, encodeBlockHeader(h)...)
	out = append(out, data...)
	return append(out, footer...)
}

func zigzag(d uint64) uint64 {
	return uint64((int64(d) << 1) ^ (int64(d) >> 63))
}

func unzigzag(z uint64) uint64 {
	return uint64((int64(z) >> 1) ^ -(int64(z) & 1))
}

// cursor reads untrusted bytes front to back. A read past the end marks
// the cursor bad and returns zero values instead of panicking.
type cursor struct {
	b   []byte
	bad bool
}

func (r *cursor) next(n uint64) []byte {
	if r.bad || n > uint64(len(r.b)) {
		r.bad = true
		return nil
	}
	v := r.b[:n]
	r.b = r.b[n:]
	return v
}

func (r *cursor) uvarint() uint64 {
	v, n := binary.Uvarint(r.b)
	if n <= 0 {
		r.bad = true
		return 0
	}
	r.b = r.b[n:]
	return v
}

// done reports whether every byte was read and none was missing.
func (r *cursor) done() bool { return !r.bad && len(r.b) == 0 }

// DecodeBlock validates a complete block image — header, footer frame and
// data checksum — and decodes it back to its cells, in block order. Every
// read is bounds-checked: this path is fuzzed with arbitrary bytes.
func DecodeBlock(buf []byte) ([]Cell, error) {
	h, v := parseBlockHeader(buf, int64(len(buf)))
	switch v {
	case blockForeign:
		return nil, fmt.Errorf("expstore: foreign block")
	case blockCorrupt:
		return nil, fmt.Errorf("%w: block header", frame.ErrCorrupt)
	}
	payload, err := frame.Decode(footerMagic, FormatVersion, schemaKey, buf[h.footerOff:])
	if err != nil {
		return nil, err
	}
	fail := func(format string, args ...any) ([]Cell, error) {
		return nil, fmt.Errorf("%w: block: %s", frame.ErrCorrupt, fmt.Sprintf(format, args...))
	}
	foot := &cursor{b: payload}
	crc := foot.next(4)
	data := &cursor{b: buf[blockHeaderSize:h.footerOff]}
	if crc == nil || frame.Checksum(data.b) != binary.LittleEndian.Uint32(crc) {
		return fail("data checksum mismatch")
	}
	// Every cell carries a 32-byte key, which bounds the allocation below
	// by the file size.
	if h.cells > len(data.b)/KeyBytes {
		return fail("%d cells in %d data bytes", h.cells, len(data.b))
	}
	cells := make([]Cell, h.cells)
	for i := range columns {
		c := &columns[i]
		col := &cursor{b: data.next(foot.uvarint())}
		switch c.kind {
		case kindDict:
			n := foot.uvarint()
			if n == 0 || n > uint64(h.cells) {
				return fail("column %q dictionary size %d for %d cells", c.name, n, h.cells)
			}
			dict := make([]string, n)
			for j := range dict {
				dict[j] = string(foot.next(foot.uvarint()))
			}
			for k := range cells {
				j := col.uvarint()
				if j >= n {
					return fail("column %q dictionary index %d of %d", c.name, j, n)
				}
				*c.str(&cells[k]) = dict[j]
			}
		case kindUint:
			var prev uint64
			for k := range cells {
				prev += unzigzag(col.uvarint())
				*c.u64(&cells[k]) = prev
			}
		case kindFloat:
			for k := range cells {
				if b := col.next(8); b != nil {
					*c.f64(&cells[k]) = math.Float64frombits(binary.LittleEndian.Uint64(b))
				}
			}
		case kindKey:
			for k := range cells {
				copy(c.ckey(&cells[k])[:], col.next(KeyBytes))
			}
		}
		if !col.done() || foot.bad || data.bad {
			return fail("column %q region malformed", c.name)
		}
	}
	if !foot.done() || !data.done() {
		return fail("%d footer and %d data bytes left over", len(foot.b), len(data.b))
	}
	return cells, nil
}
