package record

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

// edgeValue draws from all five types, weighted toward the encodings
// most likely to break a decoder: empty and NUL-bearing text and
// blobs, varints at their width boundaries, and special floats.
func edgeValue(r *rand.Rand) Value {
	ints := []int64{0, 1, -1, 63, -64, 64, -65, 1 << 20, math.MaxInt64, math.MinInt64, math.MaxInt64 - 1, math.MinInt64 + 1}
	floats := []float64{0, math.Copysign(0, -1), 1.5, math.Inf(1), math.Inf(-1), math.MaxFloat64, math.SmallestNonzeroFloat64, math.NaN()}
	texts := []string{"", "\x00", "a\x00b", "\x00\x00\x00", "STANDARD POLISHED TIN", string(make([]byte, 300))}
	switch r.Intn(7) {
	case 0:
		return Null()
	case 1:
		return Int(ints[r.Intn(len(ints))])
	case 2:
		return Int(r.Int63() - r.Int63())
	case 3:
		return Float(floats[r.Intn(len(floats))])
	case 4:
		return Text(texts[r.Intn(len(texts))])
	case 5:
		b := make([]byte, r.Intn(6))
		r.Read(b)
		if r.Intn(3) == 0 {
			b = nil
		}
		return Blob(b)
	default:
		return Blob([]byte{0, 0, 1, 0})
	}
}

func edgeRow(r *rand.Rand, maxCols int) []Value {
	row := make([]Value, r.Intn(maxCols+1))
	for i := range row {
		row[i] = edgeValue(r)
	}
	return row
}

// sameValue is exact identity: same type and the same payload bits
// (so -0.0 and NaN are distinguished, unlike Compare).
func sameValue(a, b Value) bool {
	if a.Type() != b.Type() {
		return false
	}
	switch a.Type() {
	case TypeInt:
		return a.Int() == b.Int()
	case TypeFloat:
		return math.Float64bits(a.Float()) == math.Float64bits(b.Float())
	case TypeText:
		return a.Text() == b.Text()
	case TypeBlob:
		return bytes.Equal(a.Blob(), b.Blob())
	}
	return true
}

func randomNeed(r *rand.Rand, n int) []bool {
	if r.Intn(5) == 0 {
		return nil
	}
	need := make([]bool, n)
	for i := range need {
		need[i] = r.Intn(2) == 0
	}
	return need
}

// checkProjected verifies a DecodeRowInto result against the full
// decode: needed positions equal DecodeRow, every other position of
// dst is NULL.
func checkProjected(t *testing.T, full, dst []Value, need []bool) {
	t.Helper()
	for k := range dst {
		wanted := k < len(full) && (need == nil || need[k])
		switch {
		case wanted && !sameValue(dst[k], full[k]):
			t.Fatalf("column %d: projected %v (%v), full %v (%v)", k, dst[k], dst[k].Type(), full[k], full[k].Type())
		case !wanted && !dst[k].IsNull():
			t.Fatalf("column %d: not needed but holds %v", k, dst[k])
		}
	}
}

// Property: a projected decode into one reused buffer equals DecodeRow
// at the needed positions and is NULL everywhere else, whatever the
// buffer held before.
func TestDecodeRowIntoProjectionProperty(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	const width = 8
	dst := make([]Value, width)
	for i := range dst {
		dst[i] = Text("stale") // a leak of anything shows as non-NULL
	}
	for trial := 0; trial < 5000; trial++ {
		row := edgeRow(r, width)
		enc := EncodeRow(nil, row)
		full, err := DecodeRow(enc)
		if err != nil {
			t.Fatalf("trial %d: DecodeRow(%v): %v", trial, row, err)
		}
		for k := range row {
			if !sameValue(full[k], row[k]) {
				t.Fatalf("trial %d: round trip column %d: %v -> %v", trial, k, row[k], full[k])
			}
		}
		need := randomNeed(r, width)
		err = DecodeRowInto(dst, enc, need)
		if err != nil {
			t.Fatalf("trial %d: DecodeRowInto(%v): %v", trial, row, err)
		}
		checkProjected(t, full, dst, need)

		// Decoded text and blobs own their bytes: scribbling over the
		// encoding must not change them.
		for i := range enc {
			enc[i] ^= 0xA5
		}
		checkProjected(t, full, dst, need)
	}
}

// corruptions derives malformed encodings from a valid one: every
// strict prefix, every header byte replaced by an invalid type, an
// appended trailing byte, and an overlong text/blob length.
func corruptions(enc []byte) [][]byte {
	var out [][]byte
	for n := 0; n < len(enc); n++ {
		out = append(out, append([]byte(nil), enc[:n]...))
	}
	hdr := bytes.IndexByte(enc, recordEnd)
	for k := 0; k < hdr; k++ {
		for _, bad := range []byte{byte(TypeBlob) + 1, 0x7F, 0xFE} {
			c := append([]byte(nil), enc...)
			c[k] = bad
			out = append(out, c)
		}
	}
	out = append(out, append(append([]byte(nil), enc...), 0))
	for _, length := range []uint64{1 << 31, 1 << 62, 1 << 63, math.MaxUint64} {
		c := []byte{byte(TypeText), byte(TypeBlob), recordEnd}
		c = binary.AppendUvarint(c, length)
		out = append(out, append(c, 'x', 0))
	}
	return out
}

// Property: truncated input, bad type bytes, overlong lengths and
// trailing bytes are rejected by the projected decode exactly when
// DecodeRow rejects them, whichever columns are needed.
func TestDecodeRowIntoRejectsLikeDecodeRow(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	dst := make([]Value, 8)
	for trial := 0; trial < 300; trial++ {
		enc := EncodeRow(nil, edgeRow(r, len(dst)))
		for _, c := range corruptions(enc) {
			_, fullErr := DecodeRow(c)
			for _, need := range [][]bool{nil, make([]bool, len(dst)), randomNeed(r, len(dst))} {
				projErr := DecodeRowInto(dst, c, need)
				if (fullErr == nil) != (projErr == nil) {
					t.Fatalf("% x (need %v): DecodeRow err %v, DecodeRowInto err %v", c, need, fullErr, projErr)
				}
			}
			if len(c) < len(enc) && bytes.Equal(c, enc[:len(c)]) && fullErr == nil {
				t.Fatalf("truncation % x of % x accepted", c, enc)
			}
		}
	}
}

func TestDecodeRowIntoTooManyColumns(t *testing.T) {
	enc := EncodeRow(nil, []Value{Int(1), Int(2), Int(3)})
	if err := DecodeRowInto(make([]Value, 2), enc, nil); err == nil {
		t.Error("a record wider than dst was accepted")
	}
}

// FuzzDecodeRow checks the projected decode against DecodeRow on
// arbitrary bytes: both accept or both reject, and accepted records
// project exactly.
func FuzzDecodeRow(f *testing.F) {
	r := rand.New(rand.NewSource(5))
	for _, row := range sampleRows() {
		f.Add(EncodeRow(nil, row), uint64(0x5))
	}
	for i := 0; i < 20; i++ {
		enc := EncodeRow(nil, edgeRow(r, 8))
		f.Add(enc, r.Uint64())
		for _, c := range corruptions(enc) {
			if r.Intn(8) == 0 {
				f.Add(c, r.Uint64())
			}
		}
	}
	f.Fuzz(func(t *testing.T, data []byte, mask uint64) {
		full, fullErr := DecodeRow(data)
		dst := make([]Value, 64)
		for i := range dst {
			dst[i] = Int(-1)
		}
		need := make([]bool, len(dst))
		for k := range need {
			need[k] = mask&(1<<k) != 0
		}
		err := DecodeRowInto(dst, data, need)
		if fullErr == nil && len(full) > len(dst) {
			if err == nil {
				t.Fatalf("%d columns accepted into a %d-value buffer", len(full), len(dst))
			}
			return
		}
		if (fullErr == nil) != (err == nil) {
			t.Fatalf("DecodeRow err %v, DecodeRowInto err %v", fullErr, err)
		}
		if err == nil {
			checkProjected(t, full, dst, need)
		}
	})
}
