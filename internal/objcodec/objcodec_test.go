package objcodec

import (
	"bytes"
	"math"
	"testing"
)

func TestRoundTrip(t *testing.T) {
	e := NewEncoder(nil)
	e.Uint(math.MaxUint64)
	e.Int(math.MinInt64)
	e.Int(-1)
	e.Bool(true)
	e.Bool(false)
	e.Float(math.Copysign(0, -1))
	e.Float(math.Float64frombits(0x7ff8000000000001)) // a NaN payload
	e.String("qsort")
	e.String("")
	e.Ints([]int64{3, -4})
	e.Ints(nil)
	e.Ints([]int64{5, 6})

	d := NewDecoder(e.Bytes())
	if v := d.Uint(); v != math.MaxUint64 {
		t.Errorf("Uint = %d", v)
	}
	if v := d.Int(); v != math.MinInt64 {
		t.Errorf("Int = %d", v)
	}
	if v := d.Int(); v != -1 {
		t.Errorf("Int = %d", v)
	}
	if !d.Bool() || d.Bool() {
		t.Error("bools")
	}
	if v := d.Float(); math.Float64bits(v) != 1<<63 {
		t.Errorf("Float = %#x, want negative zero", math.Float64bits(v))
	}
	if v := d.Float(); math.Float64bits(v) != 0x7ff8000000000001 {
		t.Errorf("Float = %#x, want the NaN payload", math.Float64bits(v))
	}
	if s := d.String(); s != "qsort" {
		t.Errorf("String = %q", s)
	}
	if s := d.String(); s != "" {
		t.Errorf("String = %q", s)
	}
	if v := d.Ints(); len(v) != 2 || v[0] != 3 || v[1] != -4 {
		t.Errorf("Ints = %v", v)
	}
	if v := d.Ints(); v != nil {
		t.Errorf("empty Ints = %#v, want nil", v)
	}
	var arr [2]int64
	if d.IntsInto(arr[:]); arr != [2]int64{5, 6} {
		t.Errorf("IntsInto = %v", arr)
	}
	if err := d.Finish(); err != nil {
		t.Fatal(err)
	}
}

// TestDecoderRejectsNonCanonical: every value has one encoding, so a
// decoder that accepted another would let two byte strings stand for one
// stored value.
func TestDecoderRejectsNonCanonical(t *testing.T) {
	for name, tc := range map[string]struct {
		data []byte
		read func(d *Decoder)
	}{
		"non-minimal varint": {[]byte{0x81, 0x00}, func(d *Decoder) { d.Uint() }},
		"truncated varint":   {[]byte{0x81}, func(d *Decoder) { d.Uint() }},
		"overflowing varint": {bytes.Repeat([]byte{0xff}, 11), func(d *Decoder) { d.Uint() }},
		"bool byte 2":        {[]byte{2}, func(d *Decoder) { d.Bool() }},
		"truncated float":    {make([]byte, 7), func(d *Decoder) { d.Float() }},
		"string past end":    {[]byte{3, 'a', 'b'}, func(d *Decoder) { _ = d.String() }},
		"count past end":     {[]byte{0x80, 0x01}, func(d *Decoder) { d.Ints() }},
		"array length":       {[]byte{1, 0}, func(d *Decoder) { d.IntsInto(make([]int64, 2)) }},
		"trailing byte":      {[]byte{1, 0}, func(d *Decoder) { d.Uint() }},
	} {
		d := NewDecoder(tc.data)
		tc.read(d)
		if d.Finish() == nil {
			t.Errorf("%s: accepted % x", name, tc.data)
		}
	}
}

// TestErrorsAreSticky: after a failure every read is a zero value and
// Finish reports the first failure.
func TestErrorsAreSticky(t *testing.T) {
	d := NewDecoder([]byte{2, 5})
	d.Bool()
	first := d.Err()
	if first == nil {
		t.Fatal("bool byte 2 accepted")
	}
	if v := d.Uint(); v != 0 {
		t.Errorf("Uint after a failure = %d", v)
	}
	d.Failf("second")
	if d.Finish() != first {
		t.Errorf("Finish = %v, want the first failure %v", d.Finish(), first)
	}
}
