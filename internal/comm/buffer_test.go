package comm

import (
	"testing"
	"testing/quick"
)

func TestAllocAndWrap(t *testing.T) {
	t.Parallel()
	b := Alloc(16)
	if b.Len() != 16 || b.IsVirtual() || len(b.Bytes()) != 16 {
		t.Fatalf("Alloc(16): len=%d virtual=%v", b.Len(), b.IsVirtual())
	}
	p := []byte{1, 2, 3}
	w := Wrap(p)
	if w.Len() != 3 || w.IsVirtual() {
		t.Fatalf("Wrap: len=%d virtual=%v", w.Len(), w.IsVirtual())
	}
	w.Bytes()[0] = 9
	if p[0] != 9 {
		t.Error("Wrap must alias, not copy")
	}
}

func TestVirtual(t *testing.T) {
	t.Parallel()
	v := Virtual(100)
	if v.Len() != 100 || !v.IsVirtual() || v.Bytes() != nil {
		t.Fatalf("Virtual(100): len=%d virtual=%v", v.Len(), v.IsVirtual())
	}
	s := v.Slice(10, 50)
	if s.Len() != 50 || !s.IsVirtual() {
		t.Fatalf("virtual slice: len=%d virtual=%v", s.Len(), s.IsVirtual())
	}
	// A zero-length virtual buffer is not "virtual" by definition (no
	// storage needed either way).
	if Virtual(0).IsVirtual() {
		t.Error("zero-length buffer should not report virtual")
	}
}

// TestStage: a staging buffer grows to the largest request and serves
// every smaller one from the same storage; it is rebuilt only to grow or
// when the reference buffer's virtualness changes.
func TestStage(t *testing.T) {
	t.Parallel()
	realRef, virtRef := Alloc(1), Virtual(1)
	var buf Buffer
	big := Stage(&buf, realRef, 64)
	if big.Len() != 64 || big.IsVirtual() {
		t.Fatalf("first stage: len %d virtual %v", big.Len(), big.IsVirtual())
	}
	small := Stage(&buf, realRef, 16)
	if small.Len() != 16 || &small.Bytes()[0] != &big.Bytes()[0] || buf.Len() != 64 {
		t.Fatalf("a smaller stage rebuilt the buffer: len %d, buffer %d", small.Len(), buf.Len())
	}
	if grown := Stage(&buf, realRef, 128); grown.Len() != 128 || buf.Len() != 128 {
		t.Fatalf("a larger stage did not grow the buffer: len %d, buffer %d", grown.Len(), buf.Len())
	}
	if v := Stage(&buf, virtRef, 16); !v.IsVirtual() || v.Len() != 16 || !buf.IsVirtual() {
		t.Fatalf("a virtual reference kept real staging: virtual %v", v.IsVirtual())
	}
	if r := Stage(&buf, realRef, 8); r.IsVirtual() || r.Len() != 8 {
		t.Fatalf("a real reference kept virtual staging: virtual %v", r.IsVirtual())
	}
}

func TestSlicePanics(t *testing.T) {
	t.Parallel()
	for _, tc := range []struct{ off, n int }{{-1, 2}, {0, -1}, {8, 9}, {17, 0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Slice(%d, %d) did not panic", tc.off, tc.n)
				}
			}()
			Alloc(16).Slice(tc.off, tc.n)
		}()
	}
}

func TestAllocPanicsOnNegative(t *testing.T) {
	t.Parallel()
	defer func() {
		if recover() == nil {
			t.Error("Alloc(-1) did not panic")
		}
	}()
	Alloc(-1)
}

func TestCopyData(t *testing.T) {
	t.Parallel()
	src := Alloc(8)
	for i := range src.Bytes() {
		src.Bytes()[i] = byte(i)
	}
	dst := Alloc(8)
	n, err := CopyData(dst, src)
	if err != nil || n != 8 {
		t.Fatalf("CopyData = %d, %v", n, err)
	}
	for i, b := range dst.Bytes() {
		if b != byte(i) {
			t.Fatalf("dst[%d] = %d", i, b)
		}
	}
	if _, err := CopyData(Alloc(4), src); err == nil {
		t.Error("length mismatch accepted")
	}
	// Virtual-to-real and real-to-virtual copies are legal no-ops.
	if n, err := CopyData(Virtual(8), src); err != nil || n != 8 {
		t.Errorf("copy to virtual: %d, %v", n, err)
	}
	if n, err := CopyData(dst, Virtual(8)); err != nil || n != 8 {
		t.Errorf("copy from virtual: %d, %v", n, err)
	}
}

// refCopyBlocks is CopyBlocks written block by block with Slice and
// CopyData: the loop the primitive replaces.
func refCopyBlocks(dst Buffer, dstStart, dstStride int, src Buffer, srcStart, srcStride, count, size int) {
	for i := 0; i < count; i++ {
		d := dst.Slice((dstStart+i*dstStride)*size, size)
		s := src.Slice((srcStart+i*srcStride)*size, size)
		if _, err := CopyData(d, s); err != nil {
			panic(err)
		}
	}
}

func patterned(n int) Buffer {
	b := Alloc(n)
	for i := range b.Bytes() {
		b.Bytes()[i] = byte(i*13 + 1)
	}
	return b
}

// TestCopyBlocksMatchesBlockLoop: for arbitrary in-range layouts with
// positive, negative and zero strides on either side, CopyBlocks leaves
// dst exactly as the block-by-block loop does and returns count*size.
func TestCopyBlocksMatchesBlockLoop(t *testing.T) {
	t.Parallel()
	const nBlocks = 24
	f := func(countRaw, sizeRaw uint8, dStride, sStride int8, dPick, sPick uint8) bool {
		count := 1 + int(countRaw)%8
		size := 1 + int(sizeRaw)%5
		ds, ss := int(dStride)%4, int(sStride)%4
		// Choose starts that keep the first and last block in range.
		start := func(stride int, pick uint8) int {
			lo, hi := 0, nBlocks-1-(count-1)*stride
			if stride < 0 {
				lo, hi = -(count-1)*stride, nBlocks-1
			}
			if hi < lo {
				return -1
			}
			return lo + int(pick)%(hi-lo+1)
		}
		d0, s0 := start(ds, dPick), start(ss, sPick)
		if d0 < 0 || s0 < 0 {
			return true // layout does not fit; nothing to compare
		}
		src := patterned(nBlocks * size)
		got, want := Alloc(nBlocks*size), Alloc(nBlocks*size)
		if n := CopyBlocks(got, d0, ds, src, s0, ss, count, size); n != count*size {
			return false
		}
		refCopyBlocks(want, d0, ds, src, s0, ss, count, size)
		return string(got.Bytes()) == string(want.Bytes())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestCopyBlocksRuns pins the layouts the repacks use: a contiguous run, a
// reversed run (negative source stride) and a transpose row.
func TestCopyBlocksRuns(t *testing.T) {
	t.Parallel()
	src := Wrap([]byte("abcdefgh"))
	for _, tc := range []struct {
		name                         string
		dStart, dStride              int
		sStart, sStride, count, size int
		want                         string
	}{
		{"contiguous", 1, 1, 1, 1, 3, 2, "..cdefgh"},
		{"reversed", 0, 1, 3, -1, 4, 1, "dcba...."},
		{"reversed dst", 3, -1, 0, 1, 4, 1, "dcba...."},
		{"transpose row", 0, 2, 0, 1, 4, 1, "a.b.c.d."},
		{"gather every other", 0, 1, 1, 2, 2, 2, "cdgh...."},
	} {
		dst := Wrap([]byte("........"))
		n := CopyBlocks(dst, tc.dStart, tc.dStride, src, tc.sStart, tc.sStride, tc.count, tc.size)
		if got := string(dst.Bytes()); got != tc.want || n != tc.count*tc.size {
			t.Errorf("%s: dst %q, n %d; want %q, %d", tc.name, got, n, tc.want, tc.count*tc.size)
		}
	}
}

// TestCopyBlocksShortLastRun packs the blocks whose index has bit k set —
// full runs of k blocks every 2k, then a short last run — the way the
// Bruck exchange packs a step, and checks it against the block loop.
func TestCopyBlocksShortLastRun(t *testing.T) {
	t.Parallel()
	const n, block = 13, 3
	for k := 1; k < n; k <<= 1 {
		full := n / (2 * k)
		tail := max(0, n-full*2*k-k)
		src := patterned(n * block)
		got := Alloc(n * block)
		moved := CopyBlocks(got, 0, 1, src, 1, 2, full, k*block)
		moved += CopyBlocks(got, full*k, 1, src, (2*full+1)*k, 1, tail, block)
		want := Alloc(n * block)
		m := 0
		for i := 0; i < n; i++ {
			if i&k != 0 {
				refCopyBlocks(want, m, 1, src, i, 1, 1, block)
				m++
			}
		}
		if moved != m*block || string(got.Bytes()) != string(want.Bytes()) {
			t.Errorf("k=%d: moved %d of %d bytes, packed %v want %v", k, moved, m*block, got.Bytes(), want.Bytes())
		}
	}
}

// TestCopyBlocksVirtual: a virtual side moves nothing, yet the call
// returns the logical byte count; a zero count is a no-op that checks no
// bounds at all.
func TestCopyBlocksVirtual(t *testing.T) {
	t.Parallel()
	real := patterned(16)
	before := string(real.Bytes())
	if n := CopyBlocks(Virtual(16), 3, -1, Virtual(16), 0, 2, 4, 2); n != 8 {
		t.Errorf("virtual to virtual: %d bytes, want 8", n)
	}
	if n := CopyBlocks(real, 0, 1, Virtual(16), 0, 1, 4, 4); n != 16 {
		t.Errorf("virtual to real: %d bytes, want 16", n)
	}
	if got := string(real.Bytes()); got != before {
		t.Errorf("virtual source changed a real destination: %v", real.Bytes())
	}
	if n := CopyBlocks(Virtual(16), 0, 1, real, 0, 1, 4, 4); n != 16 {
		t.Errorf("real to virtual: %d bytes, want 16", n)
	}
	if n := CopyBlocks(Alloc(4), 100, 1, Virtual(4), -7, 3, 0, 4); n != 0 {
		t.Errorf("zero count: %d bytes, want 0", n)
	}
}

// TestCopyBlocksPanics: an out-of-range first or last block, on either
// side, panics on real and virtual buffers alike, as Slice does.
func TestCopyBlocksPanics(t *testing.T) {
	t.Parallel()
	for _, kind := range []struct {
		name string
		mk   func(int) Buffer
	}{{"real", Alloc}, {"virtual", Virtual}} {
		for _, tc := range []struct {
			name                    string
			dStart, dStride, sStart int
			sStride, count, size    int
		}{
			{"first dst block negative", -1, 1, 0, 1, 2, 4},
			{"last dst block past end", 2, 1, 0, 1, 3, 4},
			{"reversed dst runs below zero", 1, -1, 0, 1, 3, 4},
			{"first src block past end", 0, 1, 4, 1, 1, 4},
			{"last src block past end", 0, 1, 0, 2, 3, 4},
			{"negative count", 0, 1, 0, 1, -1, 4},
			{"negative size", 0, 1, 0, 1, 1, -4},
		} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s/%s: no panic", kind.name, tc.name)
					}
				}()
				CopyBlocks(kind.mk(16), tc.dStart, tc.dStride, kind.mk(16), tc.sStart, tc.sStride, tc.count, tc.size)
			}()
		}
	}
}

// TestSliceProperty: slicing preserves offsets — byte i of Slice(off, n)
// is byte off+i of the parent, for arbitrary valid ranges.
func TestSliceProperty(t *testing.T) {
	t.Parallel()
	base := Alloc(257)
	for i := range base.Bytes() {
		base.Bytes()[i] = byte(i * 7)
	}
	f := func(offRaw, nRaw uint16) bool {
		off := int(offRaw) % base.Len()
		n := int(nRaw) % (base.Len() - off)
		s := base.Slice(off, n)
		if s.Len() != n {
			return false
		}
		for i := 0; i < n; i++ {
			if s.Bytes()[i] != base.Bytes()[off+i] {
				return false
			}
		}
		// Nested slice composes.
		if n >= 2 {
			s2 := s.Slice(1, n-1)
			if s2.Bytes()[0] != base.Bytes()[off+1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCheckHelpers(t *testing.T) {
	t.Parallel()
	if err := CheckPeer(0, 4); err != nil {
		t.Error(err)
	}
	if err := CheckPeer(3, 4); err != nil {
		t.Error(err)
	}
	if err := CheckPeer(4, 4); err == nil {
		t.Error("peer == size accepted")
	}
	if err := CheckPeer(-1, 4); err == nil {
		t.Error("negative peer accepted")
	}
	if err := CheckTag(0); err != nil {
		t.Error(err)
	}
	if err := CheckTag(-1); err == nil {
		t.Error("negative tag accepted")
	}
}
