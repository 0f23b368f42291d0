//go:build amd64

package tensor

// normFactorsAVX2 replaces s[i] with √(−2·ln s[i] / s[i]) for i < n, n a
// positive multiple of 4 and every s[i] a positive normal float64
// (normal_amd64.s).
//
//go:noescape
func normFactorsAVX2(s *float64, n int)

func normFactorsASM(s []float64) int {
	n := len(s) &^ 3
	if n == 0 || !elemActive() {
		return 0
	}
	normFactorsAVX2(&s[0], n)
	return n
}
