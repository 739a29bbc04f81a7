// Package wirefix is a CLI test fixture: a tiny module that trips one
// deterministic finding per analyzer family, so the -json wire contract and
// the exit-code contract can be pinned by golden tests.
package wirefix

// Keys leaks map iteration order into a slice (maporder).
func Keys(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}

// Equal compares floats exactly (floateq).
func Equal(a, b float64) bool {
	return a == b
}

// Close compares floats under a reasonless waiver (suppression).
func Close(a, b float64) bool {
	//vdce:ignore floateq
	return a == b
}
