package snap

import (
	"bytes"
	"errors"
	"io"
	"math"
	"strings"
	"testing"
)

// writeAll encodes one value of every type, in a fixed order that
// readAll mirrors.
func writeAll(w *Writer) {
	w.Raw([]byte("HBM"))
	w.Tag('S')
	w.U64(0)
	w.U64(math.MaxUint64)
	w.I64(math.MinInt64)
	w.I64(-1)
	w.Int(300)
	w.Bool(true)
	w.Bool(false)
	w.F64(math.Copysign(0, -1))
	w.F64(math.Inf(1))
	w.F64(0.1)
	w.Int(3) // a Len
	w.U64(6) // a Core
	w.U64(9) // a Page
}

// values is what readAll returns for writeAll's stream.
type values struct {
	raw            [3]byte
	u0, uMax       uint64
	iMin, iNeg     int64
	n              int
	t, f           bool
	negZero, inf   float64
	tenth          float64
	length         int
	core, page     uint64
	verifyErr, err error
}

func readAll(r *Reader) values {
	var v values
	r.Raw(v.raw[:])
	r.Tag('S', "scalars")
	v.u0, v.uMax = r.U64(), r.U64()
	v.iMin, v.iNeg = r.I64(), r.I64()
	v.n = r.Int()
	v.t, v.f = r.Bool(), r.Bool()
	v.negZero, v.inf, v.tenth = r.F64(), r.F64(), r.F64()
	v.length = r.Len(3, "things")
	v.core, v.page = r.Core(), r.Page()
	v.err = r.Err()
	v.verifyErr = r.Verify()
	return v
}

func encode(t *testing.T, write func(*Writer)) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := NewWriter(&buf)
	write(w)
	if err := w.Finish(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// newReader decodes b with limits that admit writeAll's core and page.
func newReader(b []byte) *Reader {
	r := NewReader(bytes.NewReader(b))
	r.MaxCores, r.MaxPages = 7, 10
	return r
}

func TestRoundTripEveryType(t *testing.T) {
	v := readAll(newReader(encode(t, writeAll)))
	if v.err != nil || v.verifyErr != nil {
		t.Fatalf("decode: %v, verify: %v", v.err, v.verifyErr)
	}
	if string(v.raw[:]) != "HBM" || v.u0 != 0 || v.uMax != math.MaxUint64 ||
		v.iMin != math.MinInt64 || v.iNeg != -1 || v.n != 300 || !v.t || v.f ||
		v.length != 3 || v.core != 6 || v.page != 9 {
		t.Fatalf("round trip changed values: %+v", v)
	}
	if !math.Signbit(v.negZero) || v.negZero != 0 || !math.IsInf(v.inf, 1) || v.tenth != 0.1 {
		t.Fatalf("float round trip not bit-exact: %v %v %v", v.negZero, v.inf, v.tenth)
	}
}

// decodeErr runs read over the stream write produces and returns the
// reader's first error, or Verify's when decoding succeeded.
func decodeErr(t *testing.T, write func(*Writer), read func(*Reader)) error {
	t.Helper()
	r := newReader(encode(t, write))
	read(r)
	if err := r.Err(); err != nil {
		return err
	}
	return r.Verify()
}

func TestBoundsChecks(t *testing.T) {
	for name, tc := range map[string]struct {
		write func(*Writer)
		read  func(*Reader)
		want  string
	}{
		"len over cap": {func(w *Writer) { w.Int(4) }, func(r *Reader) { r.Len(3, "things") }, "exceeds limit"},
		"negative cap": {func(w *Writer) { w.Int(0) }, func(r *Reader) { r.Len(-1, "things") }, "exceeds limit"},
		"core at max":  {func(w *Writer) { w.U64(7) }, func(r *Reader) { r.Core() }, "core index"},
		"page at max":  {func(w *Writer) { w.U64(10) }, func(r *Reader) { r.Page() }, "page 10 out of range"},
		"bool byte 2":  {func(w *Writer) { w.Raw([]byte{2}) }, func(r *Reader) { r.Bool() }, "bad bool"},
		"wrong tag":    {func(w *Writer) { w.Tag('A') }, func(r *Reader) { r.Tag('B', "b section") }, "b section"},
	} {
		err := decodeErr(t, tc.write, tc.read)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want one mentioning %q", name, err, tc.want)
		}
	}
	// Just under each limit is fine.
	err := decodeErr(t,
		func(w *Writer) { w.Int(3); w.U64(6); w.U64(9) },
		func(r *Reader) { r.Len(3, "things"); r.Core(); r.Page() })
	if err != nil {
		t.Fatalf("values at limit-1: %v", err)
	}
}

func TestTruncatedStream(t *testing.T) {
	full := encode(t, writeAll)
	// Every proper prefix fails cleanly: mid-value cuts while decoding,
	// cuts inside the trailer at Verify.
	for n := 0; n < len(full); n++ {
		v := readAll(newReader(full[:n]))
		if !errors.Is(v.verifyErr, io.ErrUnexpectedEOF) {
			t.Fatalf("prefix of %d/%d bytes: err %v, want io.ErrUnexpectedEOF", n, len(full), v.verifyErr)
		}
	}
}

func TestFlippedByteDetected(t *testing.T) {
	full := encode(t, writeAll)
	payload := len(full) - 8 // the checksum trailer is the last 8 bytes
	for i := 0; i < payload; i++ {
		for _, bit := range []byte{0x01, 0x80} {
			b := bytes.Clone(full)
			b[i] ^= bit
			if v := readAll(newReader(b)); v.verifyErr == nil {
				t.Fatalf("flipping bit %#x of byte %d went undetected", bit, i)
			}
		}
	}
	b := bytes.Clone(full)
	b[len(b)-1] ^= 1
	if v := readAll(newReader(b)); !errors.Is(v.verifyErr, ErrChecksum) {
		t.Fatalf("corrupt trailer: %v, want ErrChecksum", v.verifyErr)
	}
}

// failWriter fails every write.
type failWriter struct{}

var errSink = errors.New("sink broken")

func (failWriter) Write([]byte) (int, error) { return 0, errSink }

func TestWriterErrorLatched(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Int(-1)
	first := w.Err()
	if first == nil {
		t.Fatal("negative count not rejected")
	}
	w.Fail(errors.New("later"))
	w.U64(5)
	if w.Err() != first {
		t.Fatalf("latched error replaced by %v", w.Err())
	}
	if err := w.Finish(); err != first {
		t.Fatalf("Finish = %v, want the first error", err)
	}
	if buf.Len() != 0 {
		t.Fatalf("%d bytes written after the error", buf.Len())
	}

	// An I/O failure surfaces once the buffer flushes, mid-stream or at
	// Finish, and sticks.
	w = NewWriter(failWriter{})
	w.Raw(make([]byte, 1<<16))
	if !errors.Is(w.Err(), errSink) {
		t.Fatalf("large write: Err = %v, want the sink's error", w.Err())
	}
	if err := w.Finish(); !errors.Is(err, errSink) {
		t.Fatalf("Finish = %v, want the sink's error", err)
	}
	w = NewWriter(failWriter{})
	w.U64(1)
	if err := w.Finish(); !errors.Is(err, errSink) {
		t.Fatalf("Finish of a small stream = %v, want the sink's error", err)
	}
}

func TestReaderErrorLatched(t *testing.T) {
	r := newReader(encode(t, func(w *Writer) { w.Raw([]byte{7}); w.U64(5) }))
	r.Bool()
	first := r.Err()
	if first == nil {
		t.Fatal("bad bool accepted")
	}
	r.Fail(errors.New("later"))
	if r.U64() != 0 || r.I64() != 0 || r.F64() != 0 || r.Bool() || r.Len(9, "x") != 0 {
		t.Fatal("getters return data after an error")
	}
	if b, err := r.ReadByte(); b != 0 || err != first {
		t.Fatalf("ReadByte after error = %d, %v", b, err)
	}
	if err := r.Verify(); err != first {
		t.Fatalf("Verify = %v, want the first error", err)
	}
}

// FuzzSnapReader feeds arbitrary bytes through every Reader method and
// then Verify: decoding hostile input must fail cleanly, never panic.
func FuzzSnapReader(f *testing.F) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	writeAll(w)
	if err := w.Finish(); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01})
	f.Fuzz(func(t *testing.T, data []byte) {
		v := readAll(newReader(data))
		if v.err != nil && v.verifyErr == nil {
			t.Fatalf("Verify cleared the decode error %v", v.err)
		}
	})
}
