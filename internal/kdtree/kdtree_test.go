package kdtree

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"birch/internal/vec"
)

func randPoints(r *rand.Rand, n, d int) []vec.Vector {
	pts := make([]vec.Vector, n)
	for i := range pts {
		p := vec.New(d)
		for j := range p {
			p[j] = r.Float64() * 100
		}
		pts[i] = p
	}
	return pts
}

// latticePoints returns n points on the integer grid [0, side)^d in
// shuffled order, so exact ties between grid neighbours land on indexes
// spread across the tree.
func latticePoints(r *rand.Rand, n, d, side int) []vec.Vector {
	pts := make([]vec.Vector, n)
	for i := range pts {
		p := vec.New(d)
		for j := range p {
			p[j] = float64(r.Intn(side))
		}
		pts[i] = p
	}
	return pts
}

// dupPoints returns n points drawn with replacement from a pool of
// distinct points, so most coordinates repeat exactly.
func dupPoints(r *rand.Rand, n, d, pool int) []vec.Vector {
	base := randPoints(r, pool, d)
	pts := make([]vec.Vector, n)
	for i := range pts {
		pts[i] = base[r.Intn(pool)].Clone()
	}
	return pts
}

// tieQuery returns a query on the half-integer grid: equidistant from
// several integer lattice points at once.
func tieQuery(r *rand.Rand, d, side int) vec.Vector {
	q := vec.New(d)
	for j := range q {
		q[j] = float64(r.Intn(2*side+1)) / 2
	}
	return q
}

// bruteNearest is the reference implementation.
func bruteNearest(points []vec.Vector, q vec.Vector) (int, float64) {
	best, bestD := 0, vec.SqDist(q, points[0])
	for i := 1; i < len(points); i++ {
		if d := vec.SqDist(q, points[i]); d < bestD {
			best, bestD = i, d
		}
	}
	return best, bestD
}

// requireBrute fails unless the tree returns the brute loop's index and
// the bit pattern of its distance.
func requireBrute(t *testing.T, ctx string, tr *Tree, pts []vec.Vector, q vec.Vector) {
	t.Helper()
	gi, gd := tr.Nearest(q)
	bi, bd := bruteNearest(pts, q)
	if gi != bi || math.Float64bits(gd) != math.Float64bits(bd) {
		t.Fatalf("%s: q=%v: kd (%d, %x) vs brute (%d, %x)",
			ctx, q, gi, math.Float64bits(gd), bi, math.Float64bits(bd))
	}
}

func TestBuildPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("empty Build did not panic")
		}
	}()
	Build(nil)
}

func TestBuildMixedDimPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("mixed dims did not panic")
		}
	}()
	Build([]vec.Vector{vec.Of(1), vec.Of(1, 2)})
}

func TestNearestSinglePoint(t *testing.T) {
	tr := Build([]vec.Vector{vec.Of(3, 4)})
	i, d := tr.Nearest(vec.Of(0, 0))
	if i != 0 || d != 25 {
		t.Fatalf("Nearest = %d, %g", i, d)
	}
	if tr.Len() != 1 {
		t.Fatalf("Len = %d", tr.Len())
	}
}

// TestNearestMatchesBruteForce holds the tree to the brute loop's index
// and distance bits on generic random points, on lattice points probed
// from the half-integer grid (many exact ties) and on duplicate-heavy
// point sets.
func TestNearestMatchesBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for _, d := range []int{1, 2, 3, 8} {
		for _, n := range []int{1, 2, 9, 10, 100, 500} {
			sets := []struct {
				kind string
				pts  []vec.Vector
			}{
				{"random", randPoints(r, n, d)},
				{"lattice", latticePoints(r, n, d, 4)},
				{"dup", dupPoints(r, n, d, 1+n/8)},
			}
			for _, s := range sets {
				pts := s.pts
				tr := Build(pts)
				ctx := s.kind + " d=" + itoa(d) + " n=" + itoa(n)
				for trial := 0; trial < 50; trial++ {
					requireBrute(t, ctx, tr, pts, randPoints(r, 1, d)[0])
					requireBrute(t, ctx, tr, pts, tieQuery(r, d, 4))
					requireBrute(t, ctx, tr, pts, pts[r.Intn(n)])
				}
			}
		}
	}
}

// TestNearestNonFinite pins the brute loop's answer on inputs whose
// distances are not all finite numbers: overflow to +Inf everywhere
// (index 0 and +Inf), a NaN query (index 0 and its NaN), NaN or
// infinite coordinates in points[0] and elsewhere.
func TestNearestNonFinite(t *testing.T) {
	inf, nan := math.Inf(1), math.NaN()
	far := make([]vec.Vector, 40)
	for i := range far {
		far[i] = vec.Of(1e200, float64(i%5))
	}
	// One-dimensional points with every third one NaN: a NaN left in a
	// median split would misorder the partition.
	holes := make([]vec.Vector, 60)
	for i := range holes {
		holes[i] = vec.Of(float64((i * 37) % 61))
		if i%3 == 2 {
			holes[i][0] = nan
		}
	}
	cases := []struct {
		name    string
		pts     []vec.Vector
		queries []vec.Vector
	}{
		{"overflow", far, []vec.Vector{vec.Of(-1e200, 0), vec.Of(-1e200, 3), vec.Of(1e200, 2)}},
		{"nan query", far, []vec.Vector{vec.Of(nan, 0), vec.Of(0, nan), vec.Of(nan, nan)}},
		{"nan first", append([]vec.Vector{vec.Of(nan, 1)}, far...), []vec.Vector{vec.Of(1e200, 0), vec.Of(nan, 0)}},
		{"nan inside", append(append([]vec.Vector{}, far[:20]...), append([]vec.Vector{vec.Of(1, nan)}, far[20:]...)...),
			[]vec.Vector{vec.Of(1, 1), vec.Of(1e200, 4), vec.Of(-1e200, 0)}},
		{"inf first", append([]vec.Vector{vec.Of(inf, 0)}, far...),
			[]vec.Vector{vec.Of(inf, 0), vec.Of(0, 0), vec.Of(-inf, 0), vec.Of(inf, inf)}},
		{"inf inside", append(append([]vec.Vector{}, far...), vec.Of(inf, 1), vec.Of(-inf, 2), vec.Of(inf, -inf)),
			[]vec.Vector{vec.Of(inf, 1), vec.Of(-inf, 2), vec.Of(0, 0), vec.Of(inf, inf), vec.Of(1e200, 3)}},
		{"nan holes", holes, append(append([]vec.Vector{}, holes...), vec.Of(30.5), vec.Of(-1))},
		{"all nan", []vec.Vector{vec.Of(nan, 0), vec.Of(0, nan)}, []vec.Vector{vec.Of(0, 0)}},
	}
	for _, c := range cases {
		tr := Build(c.pts)
		if tr.Len() != len(c.pts) {
			t.Fatalf("%s: Len = %d, want %d", c.name, tr.Len(), len(c.pts))
		}
		for _, q := range c.queries {
			requireBrute(t, c.name, tr, c.pts, q)
		}
	}
	// The two cases a search seeded with (-1, +Inf) gets wrong, spelled out.
	if i, d := Build(far).Nearest(vec.Of(-1e200, 0)); i != 0 || !math.IsInf(d, 1) {
		t.Fatalf("all-overflow query = (%d, %g), want (0, +Inf)", i, d)
	}
	if i, d := Build(far).Nearest(vec.Of(nan, 0)); i != 0 || !math.IsNaN(d) {
		t.Fatalf("NaN query = (%d, %g), want (0, NaN)", i, d)
	}
}

func TestNearestOnIndexedPoints(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	pts := randPoints(r, 200, 3)
	tr := Build(pts)
	for i, p := range pts {
		gi, gd := tr.Nearest(p)
		if gi != i || gd != 0 {
			t.Fatalf("point %d: Nearest = (%d, %g)", i, gi, gd)
		}
	}
}

// TestDuplicatePoints: among exact duplicates the lowest index wins.
func TestDuplicatePoints(t *testing.T) {
	pts := []vec.Vector{vec.Of(5, 5), vec.Of(1, 1), vec.Of(1, 1), vec.Of(1, 1)}
	for i := 0; i < 12; i++ {
		pts = append(pts, vec.Of(1, 1))
	}
	tr := Build(pts)
	if i, d := tr.Nearest(vec.Of(1.1, 1)); i != 1 || d > 0.011 {
		t.Fatalf("Nearest among duplicates = %d, %g; want index 1", i, d)
	}
}

// TestResetReusesArrays: rebuilding over a same-size point set
// allocates nothing, and the rebuilt tree answers for the new points.
func TestResetReusesArrays(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	a, b := randPoints(r, 300, 4), randPoints(r, 300, 4)
	tr := Build(a)
	allocs := testing.AllocsPerRun(20, func() {
		tr.Reset(b)
		tr.Reset(a)
	})
	if allocs != 0 {
		t.Fatalf("Reset allocates %.1f times per rebuild pair, want 0", allocs)
	}
	tr.Reset(b)
	for i := 0; i < 100; i++ {
		requireBrute(t, "after Reset", tr, b, randPoints(r, 1, 4)[0])
	}
	// The tree holds its own copy: mutating the input changes nothing.
	q := b[7].Clone()
	b[7][0] += 1000
	if i, _ := tr.Nearest(q); i != 7 {
		t.Fatalf("Nearest after input mutation = %d, want 7", i)
	}
}

func TestQueryDimMismatchPanics(t *testing.T) {
	tr := Build([]vec.Vector{vec.Of(1, 2)})
	defer func() {
		if recover() == nil {
			t.Fatal("query dim mismatch did not panic")
		}
	}()
	tr.Nearest(vec.Of(1))
}

func TestNearestWithin(t *testing.T) {
	tr := Build([]vec.Vector{vec.Of(0, 0), vec.Of(10, 0)})
	if i, _ := tr.NearestWithin(vec.Of(1, 0), 4); i != 0 {
		t.Fatalf("within radius: %d", i)
	}
	if i, _ := tr.NearestWithin(vec.Of(5, 0), 4); i != -1 {
		t.Fatalf("outside radius accepted: %d", i)
	}
}

func TestQuickKdMatchesBrute(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		d := 1 + r.Intn(5)
		n := 1 + r.Intn(300)
		var pts []vec.Vector
		switch r.Intn(3) {
		case 0:
			pts = randPoints(r, n, d)
		case 1:
			pts = latticePoints(r, n, d, 3)
		default:
			pts = dupPoints(r, n, d, 1+r.Intn(n))
		}
		tr := Build(pts)
		for trial := 0; trial < 20; trial++ {
			q := randPoints(r, 1, d)[0]
			if trial%2 == 1 {
				q = tieQuery(r, d, 3)
			}
			gi, gd := tr.Nearest(q)
			bi, bd := bruteNearest(pts, q)
			if gi != bi || math.Float64bits(gd) != math.Float64bits(bd) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// FuzzNearestMatchesBrute drives Build and Nearest with random, lattice
// and duplicate point sets, then overwrites coordinates of points and
// queries with raw float64 bit patterns from the fuzzer (NaN, ±Inf,
// subnormals, huge magnitudes), and requires the brute loop's index and
// Float64bits distance on every query.
func FuzzNearestMatchesBrute(f *testing.F) {
	f.Add(int64(1), uint8(2), uint16(100), uint8(0), []byte(nil))
	f.Add(int64(2), uint8(3), uint16(40), uint8(1), []byte(nil))
	f.Add(int64(3), uint8(8), uint16(300), uint8(2), []byte(nil))
	f.Add(int64(4), uint8(2), uint16(64), uint8(1),
		binary.LittleEndian.AppendUint64(nil, math.Float64bits(math.Inf(1))))
	f.Add(int64(5), uint8(2), uint16(20), uint8(0),
		binary.LittleEndian.AppendUint64(nil, math.Float64bits(math.NaN())))
	f.Fuzz(func(t *testing.T, seed int64, dimSel uint8, kSel uint16, kind uint8, raw []byte) {
		dim := 1 + int(dimSel)%9
		k := 1 + int(kSel)%400
		r := rand.New(rand.NewSource(seed))
		var pts []vec.Vector
		switch kind % 3 {
		case 0:
			pts = randPoints(r, k, dim)
		case 1:
			pts = latticePoints(r, k, dim, 1+r.Intn(5))
		default:
			pts = dupPoints(r, k, dim, 1+r.Intn(k))
		}
		queries := make([]vec.Vector, 32)
		for i := range queries {
			switch i % 3 {
			case 0:
				queries[i] = randPoints(r, 1, dim)[0]
			case 1:
				queries[i] = tieQuery(r, dim, 3)
			default:
				queries[i] = pts[r.Intn(k)].Clone()
			}
		}
		// Raw words alternate between a point coordinate and a query
		// coordinate, each at a seeded position.
		for w := 0; 8*(w+1) <= len(raw); w++ {
			v := math.Float64frombits(binary.LittleEndian.Uint64(raw[8*w:]))
			if w%2 == 0 {
				pts[r.Intn(k)][r.Intn(dim)] = v
			} else {
				queries[r.Intn(len(queries))][r.Intn(dim)] = v
			}
		}
		tr := Build(pts)
		for _, q := range queries {
			requireBrute(t, "fuzz", tr, pts, q)
		}
	})
}

func BenchmarkNearest250(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	pts := randPoints(r, 250, 2)
	tr := Build(pts)
	queries := randPoints(r, 1024, 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Nearest(queries[i%len(queries)])
	}
}

func BenchmarkBrute250(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	pts := randPoints(r, 250, 2)
	queries := randPoints(r, 1024, 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bruteNearest(pts, queries[i%len(queries)])
	}
}
