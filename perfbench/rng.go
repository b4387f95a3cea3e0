package main

import "math/bits"

// rng is splitmix64. The benchmark generates its inputs with its own
// generator rather than internal/workload, so a change to the simulator's
// workload generators cannot change what the benchmark feeds it.
type rng struct{ s uint64 }

func newRNG(seed int64) *rng { return &rng{s: uint64(seed)} }

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

// below returns a uniform value in [0, n).
func (r *rng) below(n int) int { return int(scale(r.next(), int64(n))) }

// scale maps a uniform 64-bit value onto [0, n) without modulo bias, so one
// generated stream drives stacks of different capacities alike.
func scale(v uint64, n int64) int64 {
	hi, _ := bits.Mul64(v, uint64(n))
	return int64(hi)
}

// perm returns a seeded permutation of [0, n).
func (r *rng) perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.below(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}
