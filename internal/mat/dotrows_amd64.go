package mat

import "unsafe"

// useAVX2 is whether DotRows may run its assembly bodies: the CPU has AVX2
// and the operating system saves the YMM registers across context switches.
var useAVX2 = detectAVX2()

func detectAVX2() bool {
	const (
		osxsave = 1 << 27 // CPUID.1:ECX
		avx     = 1 << 28 // CPUID.1:ECX
		avx2    = 1 << 5  // CPUID.(7,0):EBX
		ymmXMM  = 0b110   // XCR0: SSE and AVX state enabled
	)
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	if ecx1&(osxsave|avx) != osxsave|avx || xgetbv()&ymmXMM != ymmXMM {
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	return ebx7&avx2 != 0
}

// cpuid executes CPUID with EAX = leaf and ECX = sub.
func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

// xgetbv returns the low word of extended control register 0.
func xgetbv() (eax uint32)

// The assembly bodies score groups × 4 rows of r elements from rows into
// dst. They differ only in how a row element is loaded and widened.

//go:noescape
func dotRowsF64(dst, w *float64, rows *float64, r, groups int)

//go:noescape
func dotRowsF32(dst, w *float64, rows *float32, r, groups int)

//go:noescape
func dotRowsI8(dst, w *float64, rows *int8, r, groups int)

// dotRowsAccel scores the leading rows of DotRows' slab, a multiple of four,
// through the assembly body of rows' element type, and returns how many it
// scored. The caller has checked the lengths.
func dotRowsAccel[E Elem](dst, w []float64, rows []E) int {
	n, r := len(dst)&^3, len(w)
	if !useAVX2 || n == 0 || r == 0 {
		return 0
	}
	var e E
	p := unsafe.Pointer(unsafe.SliceData(rows))
	switch unsafe.Sizeof(e) { // the width tells Elem's three types apart
	case 8:
		dotRowsF64(&dst[0], &w[0], (*float64)(p), r, n/4)
	case 4:
		dotRowsF32(&dst[0], &w[0], (*float32)(p), r, n/4)
	default:
		dotRowsI8(&dst[0], &w[0], (*int8)(p), r, n/4)
	}
	return n
}
