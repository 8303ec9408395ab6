// Package objcodec is the byte vocabulary of the trace store's binary
// objects (docs/TRACE_FORMAT.md, "Stored objects"): a cell's run
// sidecar and its result objects. Each stored Go type writes and reads
// itself field by field with an Encoder and a Decoder, in a codec
// declared beside the type; this package fixes only how a value of each
// primitive kind is laid out, so that every stored value has exactly one
// encoding and a Decoder accepts no other:
//
//   - unsigned integers and counts: minimal unsigned LEB128 varints;
//   - signed integers: zig-zag, then as unsigned;
//   - bools: one byte, 0 or 1;
//   - floats: the eight little-endian bytes of their IEEE-754 bits, so
//     every bit pattern survives a round trip;
//   - strings: a count, then the bytes;
//   - integer slices and arrays: a count, then the elements.
//
// There is no reflection and no field naming: a codec is a fixed
// sequence of calls, so a layout change is a change of that sequence
// and of the store's object format version.
package objcodec

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Value is a stored type's codec: Encode appends the value's fields in
// a fixed order and Decode reads them back in the same order. Decode
// has a pointer receiver, so it is *T that satisfies Value.
type Value interface {
	Encode(e *Encoder)
	Decode(d *Decoder)
}

// Encoder appends encoded values to a byte slice.
type Encoder struct {
	buf []byte
}

// NewEncoder returns an Encoder appending to buf.
func NewEncoder(buf []byte) *Encoder { return &Encoder{buf: buf} }

// Bytes returns the encoded bytes.
func (e *Encoder) Bytes() []byte { return e.buf }

// Uint appends an unsigned integer.
func (e *Encoder) Uint(v uint64) { e.buf = binary.AppendUvarint(e.buf, v) }

// Int appends a signed integer.
func (e *Encoder) Int(v int64) { e.buf = binary.AppendVarint(e.buf, v) }

// Bool appends a bool.
func (e *Encoder) Bool(v bool) {
	var b byte
	if v {
		b = 1
	}
	e.buf = append(e.buf, b)
}

// Float appends a float64 as its IEEE-754 bits.
func (e *Encoder) Float(v float64) {
	e.buf = binary.LittleEndian.AppendUint64(e.buf, math.Float64bits(v))
}

// String appends a string.
func (e *Encoder) String(s string) {
	e.Uint(uint64(len(s)))
	e.buf = append(e.buf, s...)
}

// Ints appends an integer slice (or an array, sliced).
func (e *Encoder) Ints(v []int64) {
	e.Uint(uint64(len(v)))
	for _, x := range v {
		e.Int(x)
	}
}

// Decoder reads encoded values from a byte slice. Its error is sticky:
// after the first failure every read returns a zero value, so a codec
// reads all its fields unconditionally and the caller checks Finish.
type Decoder struct {
	buf []byte
	err error
}

// NewDecoder returns a Decoder reading buf.
func NewDecoder(buf []byte) *Decoder { return &Decoder{buf: buf} }

// Failf records a decode failure (the first one wins). Codecs call it
// for structural violations the primitives cannot see, such as
// out-of-order keys.
func (d *Decoder) Failf(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("objcodec: "+format, args...)
		d.buf = nil
	}
}

// Err returns the first decode failure, if any.
func (d *Decoder) Err() error { return d.err }

// Finish returns the first decode failure, or an error if bytes are
// left over: a value must consume its encoding exactly.
func (d *Decoder) Finish() error {
	if d.err == nil && len(d.buf) > 0 {
		d.Failf("%d trailing bytes", len(d.buf))
	}
	return d.err
}

// Uint reads an unsigned integer.
func (d *Decoder) Uint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf)
	switch {
	case n == 0:
		d.Failf("truncated varint")
		return 0
	case n < 0:
		d.Failf("varint overflows 64 bits")
		return 0
	case n > 1 && d.buf[n-1] == 0:
		d.Failf("non-minimal varint")
		return 0
	}
	d.buf = d.buf[n:]
	return v
}

// Int reads a signed integer.
func (d *Decoder) Int() int64 {
	u := d.Uint()
	v := int64(u >> 1)
	if u&1 != 0 {
		v = ^v
	}
	return v
}

// Bool reads a bool.
func (d *Decoder) Bool() bool {
	if d.err != nil {
		return false
	}
	if len(d.buf) == 0 {
		d.Failf("truncated bool")
		return false
	}
	b := d.buf[0]
	if b > 1 {
		d.Failf("bool byte %#x", b)
		return false
	}
	d.buf = d.buf[1:]
	return b == 1
}

// Float reads a float64.
func (d *Decoder) Float() float64 {
	if d.err != nil {
		return 0
	}
	if len(d.buf) < 8 {
		d.Failf("truncated float")
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(d.buf))
	d.buf = d.buf[8:]
	return v
}

// Len reads a count of items that take at least one byte each (string
// bytes, slice elements, map entries): a count larger than the bytes
// left is a failure, so no decode allocates beyond its input.
func (d *Decoder) Len() int {
	n := d.Uint()
	if n > uint64(len(d.buf)) {
		d.Failf("count %d exceeds the %d bytes left", n, len(d.buf))
		return 0
	}
	return int(n)
}

// String reads a string.
func (d *Decoder) String() string {
	n := d.Len()
	if d.err != nil {
		return ""
	}
	s := string(d.buf[:n])
	d.buf = d.buf[n:]
	return s
}

// Ints reads an integer slice; an empty one reads as nil.
func (d *Decoder) Ints() []int64 {
	n := d.Len()
	if n == 0 {
		return nil
	}
	v := make([]int64, n)
	for i := range v {
		v[i] = d.Int()
	}
	return v
}

// IntsInto reads an integer array into dst, whose length the encoded
// count must equal.
func (d *Decoder) IntsInto(dst []int64) {
	if n := d.Len(); n != len(dst) && d.err == nil {
		d.Failf("array of %d integers, want %d", n, len(dst))
	}
	for i := range dst {
		dst[i] = d.Int()
	}
}
