package comm

import (
	"fmt"
	"testing"
	"testing/quick"
	"unsafe"
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

// side is one side of a copy: a buffer over parent and, for each of its
// bytes in order, the offset in parent that byte lives at (no parent for
// a virtual buffer).
type side struct {
	name   string
	parent Buffer
	buf    Buffer
	at     []int
}

// contiguous is the n-byte side starting at byte off of a patterned
// parent of size bytes.
func contiguous(size, off, n int) side {
	parent := patterned(size)
	at := make([]int, n)
	for i := range at {
		at[i] = off + i
	}
	return side{fmt.Sprintf("contiguous %d+%d", off, n), parent, parent.Slice(off, n), at}
}

// view is the side Blocks(start, stride, count, size) of a patterned
// parent of n bytes.
func view(n, start, stride, count, size int) side {
	parent := patterned(n)
	var at []int
	for i := 0; i < count; i++ {
		for j := 0; j < size; j++ {
			at = append(at, (start+i*stride)*size+j)
		}
	}
	return side{fmt.Sprintf("view %d,%d,%d,%d", start, stride, count, size), parent, parent.Blocks(start, stride, count, size), at}
}

func virtual(n int) side { return side{fmt.Sprintf("virtual %d", n), Buffer{}, Virtual(n), nil} }

// checkCopy copies src into dst with CopyData and checks dst's parent
// byte by byte: the first src.Len() bytes of dst hold src's bytes in
// order, and every other byte is untouched. Nothing moves when either
// side is virtual.
func checkCopy(src, dst side) error {
	var want []byte
	if dst.parent.Len() > 0 {
		want = append(want, dst.parent.Bytes()...)
		if src.at != nil {
			for i, o := range src.at {
				want[dst.at[i]] = src.parent.Bytes()[o]
			}
		}
	}
	n, err := CopyData(dst.buf, src.buf)
	if err != nil || n != src.buf.Len() {
		return fmt.Errorf("CopyData = %d, %v; want %d, nil", n, err, src.buf.Len())
	}
	if dst.parent.Len() > 0 && string(dst.parent.Bytes()) != string(want) {
		return fmt.Errorf("dst holds %v, want %v", dst.parent.Bytes(), want)
	}
	return nil
}

// TestCopyData copies between contiguous buffers, vector views and
// virtual buffers on either side. Runs of the two sides need not line
// up, and a message shorter than a view receive fills the view's blocks
// in order, leaving the rest of its last block and every later one as
// they were. A virtual side moves nothing and still returns the logical
// byte count; a source longer than its destination is an error.
func TestCopyData(t *testing.T) {
	t.Parallel()
	for _, tc := range []struct{ src, dst side }{
		{contiguous(16, 2, 12), contiguous(16, 4, 12)},
		{contiguous(16, 0, 12), view(32, 1, 2, 3, 4)},
		{view(32, 0, 3, 3, 4), contiguous(16, 1, 12)},
		{view(40, 1, 3, 4, 3), view(32, 0, 2, 3, 4)},
		{view(40, 2, 2, 6, 2), view(40, 1, 4, 2, 6)},
		{contiguous(16, 3, 7), view(32, 1, 2, 3, 4)},
		{view(40, 0, 4, 2, 3), view(32, 0, 2, 3, 4)},
		{virtual(12), view(32, 1, 2, 3, 4)},
		{view(32, 1, 2, 3, 4), virtual(12)},
		{virtual(12), virtual(12)},
		{contiguous(16, 0, 0), view(32, 1, 2, 3, 4)},
	} {
		if err := checkCopy(tc.src, tc.dst); err != nil {
			t.Errorf("%s into %s: %v", tc.src.name, tc.dst.name, err)
		}
	}
	for _, tc := range []struct{ src, dst side }{
		{contiguous(16, 0, 8), contiguous(16, 0, 4)},
		{view(32, 1, 2, 3, 4), view(32, 0, 3, 2, 4)},
		{contiguous(16, 0, 13), view(32, 1, 2, 3, 4)},
		{virtual(13), view(32, 1, 2, 3, 4)},
	} {
		before := append([]byte(nil), tc.dst.parent.Bytes()...)
		if _, err := CopyData(tc.dst.buf, tc.src.buf); err == nil {
			t.Errorf("%s into %s: a source longer than its destination was accepted", tc.src.name, tc.dst.name)
		}
		if string(tc.dst.parent.Bytes()) != string(before) {
			t.Errorf("%s into %s: a refused copy wrote its destination", tc.src.name, tc.dst.name)
		}
	}
}

// TestBlocksLayout: a view of one block or of stride 1 is the contiguous
// slice of its bytes, one of a virtual buffer is virtual, and slicing a
// view on its block boundaries gives the view of those blocks.
func TestBlocksLayout(t *testing.T) {
	t.Parallel()
	b := patterned(48)
	if got := b.Blocks(3, 5, 1, 4); string(got.Bytes()) != string(b.Bytes()[12:16]) {
		t.Errorf("one block: %v, want bytes 12..16", got.Bytes())
	}
	if got := b.Blocks(2, 1, 3, 4); string(got.Bytes()) != string(b.Bytes()[8:20]) {
		t.Errorf("stride 1: %v, want bytes 8..20", got.Bytes())
	}
	if got := Virtual(48).Blocks(1, 3, 4, 4); !got.IsVirtual() || got.Len() != 16 {
		t.Errorf("virtual view: virtual %v, %d bytes", got.IsVirtual(), got.Len())
	}
	if got := b.Blocks(5, 2, 0, 4); got.Len() != 0 {
		t.Errorf("zero count: %d bytes", got.Len())
	}
	v := view(48, 1, 3, 4, 3)
	for _, tc := range []struct{ off, n int }{{0, 12}, {3, 6}, {6, 6}, {9, 3}, {3, 3}, {12, 0}} {
		sub := v.buf.Slice(tc.off, tc.n)
		if sub.Len() != tc.n {
			t.Errorf("Slice(%d, %d): %d bytes", tc.off, tc.n, sub.Len())
			continue
		}
		if err := checkCopy(side{"slice", v.parent, sub, v.at[tc.off : tc.off+tc.n]}, contiguous(16, 0, tc.n)); err != nil {
			t.Errorf("Slice(%d, %d): %v", tc.off, tc.n, err)
		}
	}
	if one := v.buf.Slice(3, 3); string(one.Bytes()) != string(v.parent.Bytes()[12:15]) {
		t.Errorf("a one-block Slice of a view is not that block's bytes: %v", one.Bytes())
	}
}

// TestViewPanics: a view has no single byte slice, takes no further
// Blocks and no CopyBlocks, and slices on block boundaries only; Blocks
// needs a stride of at least 1 and its first and last block inside the
// buffer.
func TestViewPanics(t *testing.T) {
	t.Parallel()
	v := Alloc(48).Blocks(1, 3, 4, 3)
	for name, f := range map[string]func(){
		"Bytes of a view":          func() { v.Bytes() },
		"Slice off a block start":  func() { v.Slice(1, 3) },
		"Slice off a block end":    func() { v.Slice(3, 4) },
		"Slice past the end":       func() { v.Slice(9, 6) },
		"Blocks of a view":         func() { v.Blocks(0, 2, 2, 3) },
		"CopyBlocks into a view":   func() { CopyBlocks(v, 0, 1, Alloc(12), 0, 1, 2, 3) },
		"CopyBlocks out of a view": func() { CopyBlocks(Alloc(12), 0, 1, v, 0, 1, 2, 3) },
		"stride 0":                 func() { Alloc(48).Blocks(0, 0, 2, 4) },
		"negative stride":          func() { Alloc(48).Blocks(8, -1, 2, 4) },
		"negative count":           func() { Alloc(48).Blocks(0, 1, -1, 4) },
		"negative size":            func() { Alloc(48).Blocks(0, 1, 2, -4) },
		"first block negative":     func() { Alloc(48).Blocks(-1, 2, 2, 4) },
		"last block past the end":  func() { Alloc(48).Blocks(2, 5, 3, 4) },
		"virtual block past end":   func() { Virtual(48).Blocks(2, 5, 3, 4) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			f()
		}()
	}
}

// TestBufferSize pins Buffer at four words, 32 bytes on 64-bit hosts.
// Every queued message and posted receive holds one, and a 48-byte
// Buffer that kept a view's stride in fields of its own raised
// perfbench's paper workload allocations by 6.1% (40.75 to 43.25 MB),
// past that workload's 2% bound.
func TestBufferSize(t *testing.T) {
	t.Parallel()
	if got, want := unsafe.Sizeof(Buffer{}), 4*unsafe.Sizeof(uintptr(0)); got != want {
		t.Errorf("Buffer is %d bytes, want %d (a slice header and a length)", got, want)
	}
}

// FuzzBlocks copies through random views with CopyData and compares the
// destination parent with a byte-at-a-time copy. Either side may be
// sliced on its block boundaries first; a source longer than its
// destination must be refused and write nothing.
func FuzzBlocks(f *testing.F) {
	f.Add(uint8(0), uint8(2), uint8(3), uint8(4), uint8(0), uint8(1), uint8(3), uint8(5), uint8(0), uint8(0))
	f.Add(uint8(1), uint8(3), uint8(4), uint8(3), uint8(2), uint8(2), uint8(3), uint8(4), uint8(1), uint8(0))
	f.Add(uint8(0), uint8(1), uint8(1), uint8(7), uint8(0), uint8(4), uint8(5), uint8(2), uint8(0), uint8(2))
	f.Fuzz(func(t *testing.T, sStart, sStride, sCount, sSize, dStart, dStride, dCount, dSize, sCut, dCut uint8) {
		const parentLen = 512
		mk := func(start, stride, count, size, cut uint8) (side, bool) {
			st, sd, c, sz := int(start%8), 1+int(stride%8), int(count%16), 1+int(size%12)
			if c > 0 && (st+(c-1)*sd+1)*sz > parentLen {
				return side{}, false
			}
			v := view(parentLen, st, sd, c, sz)
			lo := int(cut) % (c + 1)
			return side{v.name, v.parent, v.buf.Slice(lo*sz, (c-lo)*sz), v.at[lo*sz:]}, true
		}
		src, ok := mk(sStart, sStride, sCount, sSize, sCut)
		if !ok {
			return
		}
		dst, ok := mk(dStart, dStride, dCount, dSize, dCut)
		if !ok {
			return
		}
		if src.buf.Len() <= dst.buf.Len() {
			if err := checkCopy(src, dst); err != nil {
				t.Fatalf("%s into %s: %v", src.name, dst.name, err)
			}
			return
		}
		before := append([]byte(nil), dst.parent.Bytes()...)
		if _, err := CopyData(dst.buf, src.buf); err == nil || string(dst.parent.Bytes()) != string(before) {
			t.Fatalf("%s into %s: a longer source was not refused cleanly: %v", src.name, dst.name, err)
		}
	})
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
