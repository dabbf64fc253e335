package bitset

import "testing"

// benchSet builds an n-element universe with every k-th bit set.
func benchSet(n, stride int) *Set {
	s := New(n)
	for i := 0; i < n; i += stride {
		s.Add(i)
	}
	return s
}

// BenchmarkBitsetForEach measures full iteration of a dense and a
// sparse set — the cone-walk access pattern of the carry path, which
// drains a whole cone.
func BenchmarkBitsetForEach(b *testing.B) {
	const n = 1 << 16
	for _, stride := range []int{1, 16} {
		s := benchSet(n, stride)
		name := map[int]string{1: "dense", 16: "sparse"}[stride]

		b.Run(name+"/full", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sum := 0
				s.ForEach(func(e int) { sum += e })
				if sum == -1 {
					b.Fatal("impossible")
				}
			}
		})
	}
}
