package rem

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/geom"
)

// interpolateReference is Interpolate as it stood before neighbour
// lists were shared per bucket: it redoes the bucket-ring walk for
// every unmeasured cell. The property below pins the shared-list
// version to it bit for bit.
func interpolateReference(m *Map) error {
	type pt struct {
		x, y, v float64
	}
	var measured []pt
	for cy := 0; cy < m.grid.NY; cy++ {
		for cx := 0; cx < m.grid.NX; cx++ {
			i := cy*m.grid.NX + cx
			if m.count[i] > 0 {
				c := m.grid.CellCenter(cx, cy)
				measured = append(measured, pt{c.X, c.Y, m.grid.Values()[i]})
			}
		}
	}
	if len(measured) == 0 {
		return ErrNoMeasurements
	}

	// Coarse bucket index over measured points.
	b := m.grid.Bounds()
	const bucketsPerSide = 32
	bw := b.Width() / bucketsPerSide
	bh := b.Height() / bucketsPerSide
	if bw <= 0 {
		bw = 1
	}
	if bh <= 0 {
		bh = 1
	}
	buckets := make([][]int, bucketsPerSide*bucketsPerSide)
	bidx := func(x, y float64) (int, int) {
		bx := int((x - b.MinX) / bw)
		by := int((y - b.MinY) / bh)
		if bx < 0 {
			bx = 0
		} else if bx >= bucketsPerSide {
			bx = bucketsPerSide - 1
		}
		if by < 0 {
			by = 0
		} else if by >= bucketsPerSide {
			by = bucketsPerSide - 1
		}
		return bx, by
	}
	for i, p := range measured {
		bx, by := bidx(p.x, p.y)
		buckets[by*bucketsPerSide+bx] = append(buckets[by*bucketsPerSide+bx], i)
	}

	const minNeighbors = 6
	for cy := 0; cy < m.grid.NY; cy++ {
		for cx := 0; cx < m.grid.NX; cx++ {
			i := cy*m.grid.NX + cx
			if m.count[i] > 0 {
				continue
			}
			c := m.grid.CellCenter(cx, cy)
			bx, by := bidx(c.X, c.Y)
			// Expand bucket rings until enough neighbours are found,
			// then take one extra ring so no nearer point in a
			// diagonal bucket is missed.
			var idxs []int
			lastRing := -1 // ring index after which to stop
			for r := 0; r < 2*bucketsPerSide; r++ {
				added := collectRing(buckets, bucketsPerSide, bx, by, r, &idxs)
				if added < 0 && len(idxs) > 0 {
					break // ring fully outside the index; no more points anywhere
				}
				if lastRing < 0 && len(idxs) >= minNeighbors {
					lastRing = r + 1
				}
				if lastRing >= 0 && r >= lastRing {
					break
				}
			}
			var num, den float64
			exact := false
			nearest2 := 1e300
			for _, mi := range idxs {
				p := measured[mi]
				d2 := (p.x-c.X)*(p.x-c.X) + (p.y-c.Y)*(p.y-c.Y)
				if d2 < 1e-12 {
					num, den = p.v, 1
					exact = true
					break
				}
				if d2 < nearest2 {
					nearest2 = d2
				}
				w := 1 / d2
				num += w * p.v
				den += w
			}
			if den <= 0 {
				continue
			}
			v := num / den
			if m.BlendPrior && m.hasPrior && !exact {
				pr := m.PriorRangeM
				if pr <= 0 {
					pr = 25
				}
				alpha := 1 / (1 + nearest2/(pr*pr))
				v = alpha*v + (1-alpha)*m.prior[i]
			}
			m.grid.Set(cx, cy, v)
		}
	}
	return nil
}

// interpCase is a random map: n samples over a w×h area at the given
// cell size, optionally clustered into one corner (leaving most bucket
// rings empty), with or without a model prior and prior blending.
type interpCase struct {
	Seed      int64
	N         uint8
	W, H      uint8
	Cell      uint8
	Clustered bool
	Prior     bool
	Blend     bool
}

func (c interpCase) build() *Map {
	rng := rand.New(rand.NewSource(c.Seed))
	w, h := 1+float64(c.W%120), 1+float64(c.H%120)
	m := New(geom.Rect{MaxX: w, MaxY: h}, 1+float64(c.Cell%3))
	if c.Prior {
		m.FillFrom(func(p geom.Vec2) float64 { return 40 - 0.1*p.Norm() })
	}
	m.BlendPrior = c.Blend
	n := int(c.N % 64)
	for j := 0; j < n; j++ {
		x, y := rng.Float64()*w, rng.Float64()*h
		if c.Clustered {
			x, y = x/8, y/8
		}
		m.AddMeasurement(geom.V2(x, y), rng.NormFloat64()*10)
	}
	return m
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func matchesReference(c interpCase) bool {
	got, want := c.build(), c.build()
	errGot, errWant := got.Interpolate(), interpolateReference(want)
	return errGot == errWant && sameBits(got.Grid().Values(), want.Grid().Values())
}

func TestInterpolateMatchesReferenceBits(t *testing.T) {
	fixed := []interpCase{
		{Seed: 1, N: 1, W: 99, H: 99, Cell: 0},                            // single point
		{Seed: 2, N: 1, W: 119, H: 40, Cell: 1, Prior: true, Blend: true}, // single point, blended
		{Seed: 3, N: 0, W: 50, H: 50},                                     // no samples
		{Seed: 4, N: 40, W: 119, H: 119, Clustered: true},                 // empty rings
		{Seed: 5, N: 40, W: 119, H: 119, Clustered: true, Prior: true, Blend: true},
		{Seed: 6, N: 63, W: 0, H: 119}, // one-cell-wide strip
	}
	for _, c := range fixed {
		if !matchesReference(c) {
			t.Errorf("%+v: Interpolate diverged from the per-cell reference", c)
		}
	}
	if err := quick.Check(matchesReference, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
