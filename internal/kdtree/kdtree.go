// Package kdtree implements an exact nearest-neighbor k-d tree over
// d-dimensional points. BIRCH's Phase 4 assigns every data point to the
// closest of K centroids — an O(N·K) brute-force loop in the paper's
// description. With the paper's larger K settings (Figure 5 runs up to
// K = 250) the assignment dominates Phase 4, and an exact k-d tree cuts
// the per-point cost to roughly O(log K) in low dimension. The library
// uses it automatically when K crosses a threshold; results never
// change, only speed.
//
// "Exact" is bit-level: Nearest returns the same index and the same
// Float64bits squared distance as the reference loop
//
//	best, bestD := 0, vec.SqDist(q, points[0])
//	for i := 1; i < len(points); i++ {
//		if d := vec.SqDist(q, points[i]); d < bestD {
//			best, bestD = i, d
//		}
//	}
//
// for every input, exact ties, infinities and NaNs included. Three
// facts carry the argument. The leaf scan sums (q[j]−c[j])² in
// component order, the same floating-point operations as vec.SqDist. A
// candidate replaces the incumbent when its distance is smaller, or
// equal with a lower index, so among equidistant centroids the lowest
// index wins wherever it sits in the tree. And a far subtree is skipped
// only when δ² > bestD, where δ = q[axis] − split: rounding is
// monotone and every summand is non-negative, so each far-side
// centroid's computed distance is ≥ fl(δ²) (or NaN, which never wins)
// and a skipped subtree cannot hold a winner, tied or not.
package kdtree

import (
	"math"

	"birch/internal/vec"
)

// leafSize is the most centroids one leaf holds. On the DS1 Phase 3
// centroids (K = 100, d = 2) a DS1 point at leaf size 8 visits ≈4.7
// internal nodes and 1.7 leaves and computes 10.5 distances (leaf size
// 2: 8.6 nodes, 3.1 leaves, 5.1 distances; 16: 3.3, 1.4, 17.8). Per
// query, leaf size 2 measured slower than 8, and 4 and 16 level with it.
const leafSize = 8

// Tree is an exact nearest-neighbor index over a fixed point set. The
// tree copies the coordinates into its own leaf slab, so callers may
// reuse or mutate the input after Build or Reset returns. The zero value
// is empty; Reset fills it. A built Tree is safe for concurrent Nearest
// calls; Reset must not race with them.
type Tree struct {
	dim   int
	n     int       // indexed point count (Len), including NaN points
	nodes []node    // preorder arena; nodes[0] is the root
	slab  []float64 // leaf coordinates, dim floats per slot, each leaf contiguous
	ids   []int32   // input index of each slab slot, ascending within a leaf

	// first copies points[0]: the reference loop's answer whenever no
	// candidate has a non-NaN distance. firstFinite records that it has
	// no NaN or ±Inf coordinate, in which case its distance is NaN only
	// when the query has a NaN coordinate — and then every distance is.
	first       vec.Vector
	firstFinite bool

	scratch []int32 // build permutation, reused across Resets
}

// node is one tree node in the preorder arena. An internal node's low
// child (coordinates ≤ split on axis) is the next node in the arena and
// its high child (coordinates ≥ split) is nodes[child]; a leaf owns the
// slab slots [child, child−axis).
type node struct {
	split float64 // internal: split value on axis
	axis  int32   // internal: split axis (≥ 0); leaf: minus its slot count
	child int32   // internal: arena index of the high child; leaf: first slot
}

// Build constructs a k-d tree over the given points. Build panics on an
// empty input or mixed dimensionality.
func Build(points []vec.Vector) *Tree {
	t := new(Tree)
	t.Reset(points)
	return t
}

// Reset rebuilds t over points in place, reusing its node, slab, id and
// scratch arrays: once the arrays have grown to a point set's size,
// rebuilding over a same-size set allocates nothing. It panics on an
// empty input or mixed dimensionality.
func (t *Tree) Reset(points []vec.Vector) {
	if len(points) == 0 {
		panic("kdtree: no points")
	}
	dim := points[0].Dim()
	for i, p := range points {
		if p.Dim() != dim {
			panic("kdtree: mixed dimensionality at point " + itoa(i))
		}
	}
	t.dim, t.n = dim, len(points)
	t.first = append(t.first[:0], points[0]...)
	t.firstFinite = true
	for _, v := range points[0] {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.firstFinite = false
		}
	}
	// A point with a NaN coordinate is at NaN distance from every query,
	// so it can only be the answer as points[0], which first covers.
	// Leaving such points out keeps every split comparison ordered.
	idx := t.scratch[:0]
	for i, p := range points {
		if !hasNaN(p) {
			idx = append(idx, int32(i))
		}
	}
	t.scratch = idx
	t.nodes, t.slab, t.ids = t.nodes[:0], t.slab[:0], t.ids[:0]
	if len(idx) > 0 {
		t.build(points, idx)
	}
}

func hasNaN(p vec.Vector) bool {
	for _, v := range p {
		if math.IsNaN(v) {
			return true
		}
	}
	return false
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var b [12]byte
	i := len(b)
	for v > 0 {
		i--
		b[i] = byte('0' + v%10)
		v /= 10
	}
	return string(b[i:])
}

// build appends the subtree over idx to the arena in preorder. A set of
// at most leafSize points becomes one leaf, copied into the slab in
// ascending index order; a larger set splits at the median of its
// widest-spread axis, so the tree is balanced: about log₂(n/leafSize)
// internal levels.
func (t *Tree) build(points []vec.Vector, idx []int32) {
	me := len(t.nodes)
	if len(idx) <= leafSize {
		for i := 1; i < len(idx); i++ {
			for j := i; j > 0 && idx[j] < idx[j-1]; j-- {
				idx[j], idx[j-1] = idx[j-1], idx[j]
			}
		}
		t.nodes = append(t.nodes, node{axis: -int32(len(idx)), child: int32(len(t.ids))})
		for _, i := range idx {
			t.ids = append(t.ids, i)
			t.slab = append(t.slab, points[i]...)
		}
		return
	}
	axis := widestAxis(points, idx, t.dim)
	mid := len(idx) / 2
	selectNth(points, idx, axis, mid)
	t.nodes = append(t.nodes, node{split: points[idx[mid]][axis], axis: int32(axis)})
	t.build(points, idx[:mid])
	t.nodes[me].child = int32(len(t.nodes))
	t.build(points, idx[mid:])
}

// widestAxis returns the axis along which the points of idx spread
// widest, the lowest such axis on a tie.
func widestAxis(points []vec.Vector, idx []int32, dim int) int {
	best, bestSpread := 0, -1.0
	for a := 0; a < dim; a++ {
		lo := points[idx[0]][a]
		hi := lo
		for _, i := range idx[1:] {
			v := points[i][a]
			lo = min(lo, v)
			hi = max(hi, v)
		}
		if s := hi - lo; s > bestSpread {
			best, bestSpread = a, s
		}
	}
	return best
}

// selectNth permutes idx so that idx[k] holds the point whose axis
// coordinate would sit at position k in ascending order, with every
// earlier point's coordinate ≤ it and every later one's ≥ it
// (quickselect with a median-of-three pivot; no allocation). The
// coordinates must not be NaN.
func selectNth(points []vec.Vector, idx []int32, axis, k int) {
	key := func(i int) float64 { return points[idx[i]][axis] }
	lo, hi := 0, len(idx)-1
	for lo < hi {
		a, b, c := key(lo), key(lo+(hi-lo)/2), key(hi)
		pivot := max(min(a, b), min(max(a, b), c))
		i, j := lo, hi
		for i <= j {
			for key(i) < pivot {
				i++
			}
			for key(j) > pivot {
				j--
			}
			if i <= j {
				idx[i], idx[j] = idx[j], idx[i]
				i++
				j--
			}
		}
		// Now idx[lo..j] ≤ pivot, idx[i..hi] ≥ pivot and everything
		// strictly between equals it.
		switch {
		case k <= j:
			hi = j
		case k >= i:
			lo = i
		default:
			return
		}
	}
}

// Len returns the number of indexed points.
func (t *Tree) Len() int { return t.n }

// Nearest returns the index of the point closest to q (Euclidean) and
// the squared distance to it: bit-for-bit what the reference loop in the
// package documentation returns, so among equidistant points the lowest
// index wins.
//
//birchlint:hotpath
func (t *Tree) Nearest(q vec.Vector) (int, float64) {
	if q.Dim() != t.dim {
		panic("kdtree: query dimension mismatch")
	}
	// The sentinel index n loses every tie, so the first non-NaN
	// distance — +Inf included — replaces it.
	best, bestD := int32(t.n), math.Inf(1)
	if !t.firstFinite {
		// An infinite points[0] can sit at NaN distance from a query
		// that has no NaN (∞−∞), and the reference loop then returns it
		// whatever the other distances are.
		d0 := vec.SqDist(q, t.first)
		if math.IsNaN(d0) {
			return 0, d0
		}
		best, bestD = 0, d0
	}
	// The tree is not empty here: it leaves out only NaN points, and an
	// all-NaN set has a NaN points[0], which returned above.
	best, bestD = t.search(0, q[:t.dim], best, bestD)
	if int(best) == t.n {
		return 0, vec.SqDist(q, t.first)
	}
	return int(best), bestD
}

// search visits the subtree at nodes[ni], near child first, and returns
// the updated incumbent. A candidate wins when d ≤ bestD && (d < bestD ||
// id < best): a smaller distance, or an equal one with a lower index; a
// NaN distance fails both comparisons.
//
//birchlint:hotpath
func (t *Tree) search(ni int32, q []float64, best int32, bestD float64) (int32, float64) {
	n := &t.nodes[ni]
	if n.axis >= 0 {
		delta := q[n.axis] - n.split
		near, far := ni+1, n.child
		if !(delta < 0) {
			near, far = far, near
		}
		best, bestD = t.search(near, q, best, bestD)
		// A NaN δ (∞−∞ at an infinite split) proves nothing: visit.
		if !(delta*delta > bestD) {
			best, bestD = t.search(far, q, best, bestD)
		}
		return best, bestD
	}
	lo, hi := int(n.child), int(n.child-n.axis)
	ids := t.ids[lo:hi]
	if len(q) == 2 {
		// d = 2 (the paper's DS1–DS3), unrolled: the same products summed
		// in the same order as vec.SqDist (0 + x is x for x ≥ +0 or NaN),
		// and 23–28% fewer ns per query than the generic loop
		// (BenchmarkFinderModes, d = 2, K = 8–128, medians of 8 runs).
		q0, q1 := q[0], q[1]
		slab := t.slab[2*lo : 2*hi]
		for s, id := range ids {
			e0 := q0 - slab[2*s]
			e1 := q1 - slab[2*s+1]
			d := e0 * e0
			d += e1 * e1
			if d <= bestD && (d < bestD || id < best) {
				best, bestD = id, d
			}
		}
		return best, bestD
	}
	dim := len(q)
	slab := t.slab[lo*dim : hi*dim]
	for s, off := 0, 0; s < len(ids); s, off = s+1, off+dim {
		c := slab[off : off+dim : off+dim]
		var d float64
		for j, v := range q {
			e := v - c[j]
			d += e * e
		}
		if id := ids[s]; d <= bestD && (d < bestD || id < best) {
			best, bestD = id, d
		}
	}
	return best, bestD
}

// NearestWithin is Nearest restricted to a squared radius: it returns
// (-1, 0) when no indexed point lies within sqRadius of q. Phase 4's
// outlier-discard option maps onto this directly.
func (t *Tree) NearestWithin(q vec.Vector, sqRadius float64) (int, float64) {
	i, d := t.Nearest(q)
	if d > sqRadius {
		return -1, 0
	}
	return i, d
}
