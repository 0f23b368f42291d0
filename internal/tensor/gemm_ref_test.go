package tensor

// Reference GEMM loops: the original scalar, single-threaded kernels the
// blocked ones in gemm.go replaced, kept as the oracle for the property
// tests in blocked_test.go, which pin down exactly where the fast kernels
// are bit-identical to these and where summation regrouping is unavoidable
// (see DESIGN.md §8).
//
// One deliberate change from the seed kernels: the seed's `if av == 0
// { continue }` zero-skip in Gemm/GemmTA is dropped, so the oracle matches
// the blocked kernels' include-zero-terms semantics. For finite data the
// two are bit-identical (x + 0·b == x); they differ only when a zero in A
// meets ±Inf/NaN in B (seed: C untouched; now: NaN propagates, which is
// the IEEE answer) or on the sign of exact -0 sums.

// gemmRef computes C = alpha*A*B + beta*C with the (i,p,j) axpy loop order.
func gemmRef(alpha float32, a []float32, m, k int, b []float32, n int, beta float32, c []float32) {
	if len(a) < m*k || len(b) < k*n || len(c) < m*n {
		panic("tensor: gemmRef buffer too small")
	}
	scaleC(beta, c[:m*n])
	if alpha == 0 {
		return
	}
	for i := 0; i < m; i++ {
		arow := a[i*k : i*k+k]
		crow := c[i*n : i*n+n]
		for p := 0; p < k; p++ {
			av := alpha * arow[p]
			brow := b[p*n : p*n+n]
			for j, bv := range brow {
				crow[j] += av * bv
			}
		}
	}
}

// gemmTARef computes C = alpha*Aᵀ*B + beta*C where A is stored k×m.
func gemmTARef(alpha float32, a []float32, k, m int, b []float32, n int, beta float32, c []float32) {
	if len(a) < k*m || len(b) < k*n || len(c) < m*n {
		panic("tensor: gemmTARef buffer too small")
	}
	scaleC(beta, c[:m*n])
	if alpha == 0 {
		return
	}
	for p := 0; p < k; p++ {
		arow := a[p*m : p*m+m]
		brow := b[p*n : p*n+n]
		for i, av := range arow {
			av *= alpha
			crow := c[i*n : i*n+n]
			for j, bv := range brow {
				crow[j] += av * bv
			}
		}
	}
}

// gemmTBRef computes C = alpha*A*Bᵀ + beta*C where B is stored n×k.
func gemmTBRef(alpha float32, a []float32, m, k int, b []float32, n int, beta float32, c []float32) {
	if len(a) < m*k || len(b) < n*k || len(c) < m*n {
		panic("tensor: gemmTBRef buffer too small")
	}
	scaleC(beta, c[:m*n])
	if alpha == 0 {
		return
	}
	for i := 0; i < m; i++ {
		arow := a[i*k : i*k+k]
		crow := c[i*n : i*n+n]
		for j := 0; j < n; j++ {
			brow := b[j*k : j*k+k]
			var s float32
			for p := range arow {
				s += arow[p] * brow[p]
			}
			crow[j] += alpha * s
		}
	}
}
