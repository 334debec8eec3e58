// Package core implements the paper's primary contribution composed: the
// Array class of §5 — a huge three-dimensional array stored as pages
// across many storage device processes, with a PageMap deciding the data
// layout (and therefore the parallelism of every I/O and compute
// operation), Domain subdomains, and read/write/sum operations that
// gather from and scatter to the distributed page set.
package core

import "fmt"

// Domain is a half-open box [Lo1,Hi1) × [Lo2,Hi2) × [Lo3,Hi3) of array
// indices — the paper's Domain(N11,N12, N21,N22, N31,N32) class.
type Domain struct {
	Lo, Hi [3]int
}

// NewDomain builds the box [l1,h1) × [l2,h2) × [l3,h3).
func NewDomain(l1, h1, l2, h2, l3, h3 int) Domain {
	return Domain{Lo: [3]int{l1, l2, l3}, Hi: [3]int{h1, h2, h3}}
}

// Box is the full domain [0,n1) × [0,n2) × [0,n3).
func Box(n1, n2, n3 int) Domain {
	return NewDomain(0, n1, 0, n2, 0, n3)
}

// Validate reports an error for inverted boxes.
func (d Domain) Validate() error {
	for a := 0; a < 3; a++ {
		if d.Hi[a] < d.Lo[a] {
			return fmt.Errorf("core: domain axis %d inverted: [%d,%d)", a, d.Lo[a], d.Hi[a])
		}
	}
	return nil
}

// Dims returns the box extents along each axis.
func (d Domain) Dims() (n1, n2, n3 int) {
	return d.Hi[0] - d.Lo[0], d.Hi[1] - d.Lo[1], d.Hi[2] - d.Lo[2]
}

// Size returns the number of elements in the box.
func (d Domain) Size() int {
	n1, n2, n3 := d.Dims()
	if n1 <= 0 || n2 <= 0 || n3 <= 0 {
		return 0
	}
	return n1 * n2 * n3
}

// Empty reports whether the box contains no elements.
func (d Domain) Empty() bool { return d.Size() == 0 }

// Within reports whether d lies entirely inside o.
func (d Domain) Within(o Domain) bool {
	if d.Empty() {
		return true
	}
	for a := 0; a < 3; a++ {
		if d.Lo[a] < o.Lo[a] || d.Hi[a] > o.Hi[a] {
			return false
		}
	}
	return true
}

// Intersect returns the overlap of two boxes (possibly empty).
func (d Domain) Intersect(o Domain) Domain {
	var out Domain
	for a := 0; a < 3; a++ {
		out.Lo[a] = max(d.Lo[a], o.Lo[a])
		out.Hi[a] = min(d.Hi[a], o.Hi[a])
		if out.Hi[a] < out.Lo[a] {
			out.Hi[a] = out.Lo[a]
		}
	}
	return out
}

// Equal reports exact equality.
func (d Domain) Equal(o Domain) bool { return d.Lo == o.Lo && d.Hi == o.Hi }

// String implements fmt.Stringer.
func (d Domain) String() string {
	return fmt.Sprintf("[%d,%d)x[%d,%d)x[%d,%d)", d.Lo[0], d.Hi[0], d.Lo[1], d.Hi[1], d.Lo[2], d.Hi[2])
}

// SplitAxis partitions d into parts contiguous slabs along the given
// axis (1, 2 or 3), as evenly as possible — the decomposition used to
// deploy multiple Array clients in parallel (§5), generalized to every
// axis because halo partitioning is not always first-axis-shaped.
// Degenerate parts are dropped; parts outside [1, ∞) or an axis outside
// [1, 3] yields nil.
func (d Domain) SplitAxis(axis, parts int) []Domain {
	if axis < 1 || axis > 3 || parts <= 0 {
		return nil
	}
	x := axis - 1
	n := d.Hi[x] - d.Lo[x]
	if parts > n {
		parts = n
	}
	out := make([]Domain, 0, parts)
	for p := 0; p < parts; p++ {
		lo := d.Lo[x] + n*p/parts
		hi := d.Lo[x] + n*(p+1)/parts
		if hi <= lo {
			continue
		}
		sub := d
		sub.Lo[x], sub.Hi[x] = lo, hi
		out = append(out, sub)
	}
	return out
}

// SplitAxis1 is SplitAxis along the first axis — the slab split of the
// parallel FFT and the multi-client Jacobi deployment.
func (d Domain) SplitAxis1(parts int) []Domain { return d.SplitAxis(1, parts) }
