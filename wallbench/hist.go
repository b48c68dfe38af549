package main

import (
	"math/bits"
	"sort"
)

// hist is a log-linear latency histogram over nanoseconds: exact below
// 128 ns, then 128 linear sub-buckets per power of two (under 0.8% relative
// width). Quantiles interpolate linearly inside the bucket that holds the
// rank, so they move continuously with the data instead of snapping to
// bucket bounds. A hist is owned by one goroutine.
type hist struct {
	counts [histOctaves << histSubBits]uint64
	n      uint64
}

const (
	histSubBits = 7
	histOctaves = 40 // covers up to 2^46 ns
)

func histIndex(v uint64) int {
	if v < 1<<histSubBits {
		return int(v)
	}
	shift := bits.Len64(v) - histSubBits - 1
	i := (shift+1)<<histSubBits + int(v>>uint(shift)) - 1<<histSubBits
	if i >= len(hist{}.counts) {
		i = len(hist{}.counts) - 1
	}
	return i
}

// histBucket returns bucket i's lower bound and width.
func histBucket(i int) (lo, width float64) {
	if i < 1<<histSubBits {
		return float64(i), 1
	}
	shift := uint(i>>histSubBits - 1)
	m := uint64(i&(1<<histSubBits-1)) + 1<<histSubBits
	return float64(m << shift), float64(uint64(1) << shift)
}

func (h *hist) record(ns int64) {
	if ns < 0 {
		ns = 0
	}
	h.counts[histIndex(uint64(ns))]++
	h.n++
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// quantile returns the q-quantile in nanoseconds (0 for an empty hist).
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := q * float64(h.n)
	var cum float64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if cum+float64(c) >= rank {
			lo, w := histBucket(i)
			return lo + w*(rank-cum)/float64(c)
		}
		cum += float64(c)
	}
	lo, w := histBucket(len(h.counts) - 1)
	return lo + w
}

// median returns the median of xs (0 for none); xs is reordered.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	m := len(xs) / 2
	if len(xs)%2 == 1 {
		return xs[m]
	}
	return (xs[m-1] + xs[m]) / 2
}
