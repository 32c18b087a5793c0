package obs

import "testing"

func TestPercentile(t *testing.T) {
	if got := Percentile([]int64(nil), 0.5); got != 0 {
		t.Errorf("empty Percentile = %d, want 0", got)
	}
	if got := Percentile([]int64{7}, 0.99); got != 7 {
		t.Errorf("single-sample Percentile = %d, want 7", got)
	}
	s := []int64{40, 10, 30, 20} // unsorted on purpose
	cases := []struct {
		q    float64
		want int64
	}{
		{0, 10}, {1, 40}, {-1, 10}, {2, 40},
		{0.5, 25},  // midpoint between ranks 1 and 2
		{0.25, 17}, // 0.75 of the way from 10 to 20
		{0.99, 39},
	}
	for _, tc := range cases {
		if got := Percentile(s, tc.q); got != tc.want {
			t.Errorf("Percentile(%v) = %d, want %d", tc.q, got, tc.want)
		}
	}
	// Input must not be mutated (the load runner reuses the sample slices).
	if s[0] != 40 {
		t.Error("Percentile sorted the caller's slice")
	}
}
