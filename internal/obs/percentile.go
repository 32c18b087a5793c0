package obs

import "sort"

// Percentile returns the q-th percentile (q in [0,1]) of samples by
// linear interpolation between closest ranks; samples need not be
// sorted and are not modified. Unlike HistogramSnapshot.Quantile, this
// is exact: a caller that keeps every sample loses nothing to bucket
// resolution. It is the one exact percentile: the load harness, the
// bench reports and the coordinator's hedge digest all call it.
func Percentile[T ~int64](samples []T, q float64) T {
	if len(samples) == 0 {
		return 0
	}
	s := append([]T(nil), samples...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	if q <= 0 {
		return s[0]
	}
	if q >= 1 {
		return s[len(s)-1]
	}
	pos := q * float64(len(s)-1)
	i := int(pos)
	frac := pos - float64(i)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + T(frac*float64(s[i+1]-s[i]))
}
