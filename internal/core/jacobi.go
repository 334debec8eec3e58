package core

import (
	"context"
	"fmt"
	"math"
	"sync"

	"oopp/internal/pagedev"
)

// Jacobi runs weighted Jacobi relaxation for the 3D Laplace problem on a
// distributed array: interior points are repeatedly replaced by the
// average of their six neighbours, boundary values stay fixed. It is the
// canonical structured-grid workload for the paper's Array (§5): every
// sweep reads slab subdomains *with halos* (overlapping reads are safe),
// computes locally, and writes disjoint interiors back — optionally with
// several Array clients working in parallel, one per slab, exactly the
// deployment §5 describes.
//
// a holds the current iterate and receives the result; b is a conformant
// scratch array (same geometry, may live on different devices). clients
// sets how many parallel Array clients sweep (≥1). Returns the final
// residual (max |update|) after iters sweeps.
func Jacobi(ctx context.Context, a, b *Array, iters, clients int) (float64, error) {
	if err := a.conformant(b); err != nil {
		return 0, err
	}
	if clients < 1 {
		clients = 1
	}
	N1, N2, N3 := a.Dims()
	if N1 < 3 || N2 < 3 || N3 < 3 {
		return 0, fmt.Errorf("core: Jacobi needs at least 3 points per axis, have %dx%dx%d", N1, N2, N3)
	}
	interior := NewDomain(1, N1-1, 1, N2-1, 1, N3-1)

	// b starts as a copy of a so that boundary values (never rewritten)
	// are correct in both buffers.
	if err := copyArray(ctx, b, a, a.Bounds()); err != nil {
		return 0, err
	}

	src, dst := a, b
	var residual float64
	for it := 0; it < iters; it++ {
		slabs := interior.SplitAxis1(clients)
		results := make([]float64, len(slabs))
		errs := make([]error, len(slabs))
		var wg sync.WaitGroup
		for s, slab := range slabs {
			wg.Add(1)
			go func(s int, slab Domain) {
				defer wg.Done()
				results[s], errs[s] = jacobiSweepSlab(ctx, src, dst, slab)
			}(s, slab)
		}
		wg.Wait()
		residual = 0
		for s := range slabs {
			if errs[s] != nil {
				return 0, errs[s]
			}
			residual = math.Max(residual, results[s])
		}
		src, dst = dst, src
	}
	// Ensure the result ends up in a (src holds the latest iterate after
	// the final swap).
	if src != a {
		if err := copyArray(ctx, a, src, interior); err != nil {
			return 0, err
		}
	}
	return residual, nil
}

// jacobiSweepSlab updates dst over slab from src, reading src with a
// one-point halo. Returns the slab's max |update|.
func jacobiSweepSlab(ctx context.Context, src, dst *Array, slab Domain) (float64, error) {
	// Halo-expanded read domain, clamped to the array bounds.
	halo := Domain{
		Lo: [3]int{slab.Lo[0] - 1, slab.Lo[1] - 1, slab.Lo[2] - 1},
		Hi: [3]int{slab.Hi[0] + 1, slab.Hi[1] + 1, slab.Hi[2] + 1},
	}
	bounds := src.Bounds()
	halo = halo.Intersect(bounds)

	in := make([]float64, halo.Size())
	if err := src.Read(ctx, in, halo); err != nil {
		return 0, err
	}
	h2 := halo.Hi[1] - halo.Lo[1]
	h3 := halo.Hi[2] - halo.Lo[2]
	d2 := slab.Hi[1] - slab.Lo[1]
	d3 := slab.Hi[2] - slab.Lo[2]
	// row(i, j) is the halo row through (i, j) over the slab's k-range
	// widened by one point each side.
	row := func(i, j int) []float64 {
		return in[((i-halo.Lo[0])*h2+(j-halo.Lo[1]))*h3+(slab.Lo[2]-1-halo.Lo[2]):][:d3+2]
	}

	out := make([]float64, slab.Size())
	var residual float64
	for i := slab.Lo[0]; i < slab.Hi[0]; i++ {
		for j := slab.Lo[1]; j < slab.Hi[1]; j++ {
			o := out[((i-slab.Lo[0])*d2+(j-slab.Lo[1]))*d3:][:d3]
			r := pagedev.JacobiRow(o, row(i, j), row(i-1, j), row(i+1, j), row(i, j-1), row(i, j+1))
			residual = math.Max(residual, r)
		}
	}
	if err := dst.Write(ctx, out, slab); err != nil {
		return 0, err
	}
	return residual, nil
}

// copyArray copies dom from src to dst through the client (both arrays
// must be conformant). Used to seed the Jacobi scratch buffer.
func copyArray(ctx context.Context, dst, src *Array, dom Domain) error {
	if err := dst.conformant(src); err != nil {
		return err
	}
	buf := make([]float64, dom.Size())
	if err := src.Read(ctx, buf, dom); err != nil {
		return err
	}
	return dst.Write(ctx, buf, dom)
}

// JacobiLocal is the single-machine reference implementation, used by
// tests to validate the distributed solver sweep for sweep.
func JacobiLocal(u []float64, N1, N2, N3, iters int) float64 {
	next := append([]float64(nil), u...)
	idx := func(i, j, k int) int { return (i*N2+j)*N3 + k }
	var residual float64
	for it := 0; it < iters; it++ {
		residual = 0
		for i := 1; i < N1-1; i++ {
			for j := 1; j < N2-1; j++ {
				for k := 1; k < N3-1; k++ {
					avg := (u[idx(i-1, j, k)] + u[idx(i+1, j, k)] +
						u[idx(i, j-1, k)] + u[idx(i, j+1, k)] +
						u[idx(i, j, k-1)] + u[idx(i, j, k+1)]) / 6
					next[idx(i, j, k)] = avg
					residual = math.Max(residual, math.Abs(avg-u[idx(i, j, k)]))
				}
			}
		}
		u, next = next, u
	}
	if iters%2 == 1 {
		copy(next, u) // ensure the caller's slice holds the final iterate
	}
	return residual
}
