package core

import (
	"testing"
	"testing/quick"
)

// contains reports whether (i,j,k) lies inside d: the one-element box
// there is within it.
func contains(d Domain, i, j, k int) bool { return NewDomain(i, i+1, j, j+1, k, k+1).Within(d) }

func TestDomainBasics(t *testing.T) {
	d := NewDomain(1, 5, 2, 4, 0, 3)
	n1, n2, n3 := d.Dims()
	if n1 != 4 || n2 != 2 || n3 != 3 {
		t.Fatalf("dims = %d,%d,%d", n1, n2, n3)
	}
	if d.Size() != 24 {
		t.Fatalf("size = %d", d.Size())
	}
	if d.Empty() {
		t.Fatal("non-empty domain reported empty")
	}
	if err := d.Validate(); err != nil {
		t.Fatalf("validate: %v", err)
	}
	if !contains(d, 1, 2, 0) || contains(d, 5, 2, 0) || contains(d, 1, 4, 0) || contains(d, 0, 2, 0) {
		t.Fatal("Within wrong at boundaries")
	}
	if d.String() == "" {
		t.Fatal("empty string")
	}

	bad := NewDomain(5, 1, 0, 1, 0, 1)
	if err := bad.Validate(); err == nil {
		t.Fatal("inverted domain validated")
	}

	empty := NewDomain(2, 2, 0, 4, 0, 4)
	if !empty.Empty() || empty.Size() != 0 {
		t.Fatal("degenerate domain not empty")
	}
}

func TestDomainWithinIntersect(t *testing.T) {
	outer := Box(10, 10, 10)
	inner := NewDomain(2, 5, 3, 7, 0, 10)
	if !inner.Within(outer) {
		t.Fatal("inner not within outer")
	}
	if outer.Within(inner) {
		t.Fatal("outer within inner")
	}
	// Empty domains are within everything.
	if !NewDomain(3, 3, 0, 1, 0, 1).Within(inner) {
		t.Fatal("empty domain not within")
	}

	a := NewDomain(0, 5, 0, 5, 0, 5)
	b := NewDomain(3, 8, 4, 9, 5, 10)
	i := a.Intersect(b)
	if !i.Equal(NewDomain(3, 5, 4, 5, 5, 5)) {
		t.Fatalf("intersection = %v", i)
	}
	if !i.Empty() {
		t.Fatal("expected empty intersection (axis 3 disjoint)")
	}
	j := a.Intersect(NewDomain(1, 2, 1, 2, 1, 2))
	if !j.Equal(NewDomain(1, 2, 1, 2, 1, 2)) {
		t.Fatalf("contained intersection = %v", j)
	}
}

func TestSplitAxis1(t *testing.T) {
	d := Box(10, 4, 4)
	parts := d.SplitAxis1(3)
	if len(parts) != 3 {
		t.Fatalf("parts = %d", len(parts))
	}
	total := 0
	prev := 0
	for _, p := range parts {
		if p.Lo[0] != prev {
			t.Fatalf("non-contiguous split at %v", p)
		}
		prev = p.Hi[0]
		total += p.Size()
		if p.Lo[1] != 0 || p.Hi[1] != 4 || p.Lo[2] != 0 || p.Hi[2] != 4 {
			t.Fatalf("split altered other axes: %v", p)
		}
	}
	if prev != 10 || total != d.Size() {
		t.Fatalf("split does not cover: end=%d total=%d", prev, total)
	}
	// More parts than planes: degenerate parts dropped.
	parts = Box(2, 1, 1).SplitAxis1(5)
	if len(parts) != 2 {
		t.Fatalf("overs split = %d parts", len(parts))
	}
	if got := d.SplitAxis1(0); got != nil {
		t.Fatal("zero parts should be nil")
	}
}

// SplitAxis generalizes the slab split to any axis; the halo
// partitioning of owner-computes stencils needs axes 2 and 3, uneven
// included.
func TestSplitAxisOtherAxes(t *testing.T) {
	d := NewDomain(2, 5, 1, 11, 3, 10) // extents 3, 10, 7

	checkPartition := func(t *testing.T, axis, parts int, subs []Domain) {
		t.Helper()
		prev := d.Lo[axis-1]
		total := 0
		for _, s := range subs {
			if s.Lo[axis-1] != prev || s.Hi[axis-1] <= s.Lo[axis-1] {
				t.Fatalf("axis %d parts %d: non-contiguous split at %v", axis, parts, s)
			}
			prev = s.Hi[axis-1]
			total += s.Size()
			for x := 0; x < 3; x++ {
				if x != axis-1 && (s.Lo[x] != d.Lo[x] || s.Hi[x] != d.Hi[x]) {
					t.Fatalf("axis %d: split altered axis %d: %v", axis, x+1, s)
				}
			}
		}
		if prev != d.Hi[axis-1] || total != d.Size() {
			t.Fatalf("axis %d parts %d: split does not cover: end=%d total=%d", axis, parts, prev, total)
		}
	}

	// Uneven splits: 10 planes into 3/4 parts, 7 planes into 2/3/5 parts.
	for _, parts := range []int{1, 3, 4} {
		subs := d.SplitAxis(2, parts)
		if len(subs) != parts {
			t.Fatalf("axis 2 parts %d: got %d slabs", parts, len(subs))
		}
		checkPartition(t, 2, parts, subs)
	}
	for _, parts := range []int{2, 3, 5} {
		subs := d.SplitAxis(3, parts)
		if len(subs) != parts {
			t.Fatalf("axis 3 parts %d: got %d slabs", parts, len(subs))
		}
		checkPartition(t, 3, parts, subs)
	}

	// More parts than planes: degenerate parts dropped (axis 1 extent 3).
	if subs := d.SplitAxis(1, 9); len(subs) != 3 {
		t.Fatalf("oversplit axis 1 = %d parts", len(subs))
	}
	// SplitAxis1 is exactly SplitAxis(1, ·).
	a1 := d.SplitAxis1(2)
	ax := d.SplitAxis(1, 2)
	if len(a1) != len(ax) {
		t.Fatalf("SplitAxis1 disagrees with SplitAxis(1): %v vs %v", a1, ax)
	}
	for i := range a1 {
		if !a1[i].Equal(ax[i]) {
			t.Fatalf("SplitAxis1 disagrees at %d: %v vs %v", i, a1[i], ax[i])
		}
	}
	// Invalid axis or parts yields nil.
	if d.SplitAxis(0, 2) != nil || d.SplitAxis(4, 2) != nil || d.SplitAxis(2, 0) != nil {
		t.Fatal("invalid SplitAxis arguments accepted")
	}
}

// Property: SplitAxis partitions exactly along every axis.
func TestQuickSplitAxisPartition(t *testing.T) {
	f := func(n uint8, parts uint8, axis uint8) bool {
		ax := int(axis%3) + 1
		nx := int(n%32) + 1
		p := int(parts%8) + 1
		dims := [3]int{3, 3, 3}
		dims[ax-1] = nx
		d := Box(dims[0], dims[1], dims[2])
		subs := d.SplitAxis(ax, p)
		covered := 0
		prev := 0
		for _, s := range subs {
			if s.Lo[ax-1] != prev || s.Hi[ax-1] <= s.Lo[ax-1] {
				return false
			}
			prev = s.Hi[ax-1]
			covered += s.Size()
		}
		return prev == nx && covered == d.Size()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: intersection is commutative, contained in both operands, and
// idempotent wrt Within.
func TestQuickIntersectProperties(t *testing.T) {
	f := func(a1, b1, a2, b2, a3, b3, c1, d1, c2, d2, c3, d3 uint8) bool {
		norm := func(x, y uint8) (int, int) {
			lo, hi := int(x%16), int(y%16)
			if lo > hi {
				lo, hi = hi, lo
			}
			return lo, hi
		}
		l1, h1 := norm(a1, b1)
		l2, h2 := norm(a2, b2)
		l3, h3 := norm(a3, b3)
		m1, k1 := norm(c1, d1)
		m2, k2 := norm(c2, d2)
		m3, k3 := norm(c3, d3)
		A := NewDomain(l1, h1, l2, h2, l3, h3)
		B := NewDomain(m1, k1, m2, k2, m3, k3)
		I1 := A.Intersect(B)
		I2 := B.Intersect(A)
		if I1.Size() != I2.Size() {
			return false
		}
		if !I1.Within(A) || !I1.Within(B) {
			return false
		}
		// Every point in I is in both; sampled via corners.
		if !I1.Empty() {
			pts := [][3]int{
				{I1.Lo[0], I1.Lo[1], I1.Lo[2]},
				{I1.Hi[0] - 1, I1.Hi[1] - 1, I1.Hi[2] - 1},
			}
			for _, p := range pts {
				if !contains(A, p[0], p[1], p[2]) || !contains(B, p[0], p[1], p[2]) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: SplitAxis1 partitions exactly (disjoint, covering).
func TestQuickSplitPartition(t *testing.T) {
	f := func(n uint8, parts uint8) bool {
		n1 := int(n%32) + 1
		p := int(parts%8) + 1
		d := Box(n1, 3, 3)
		subs := d.SplitAxis1(p)
		covered := 0
		prev := 0
		for _, s := range subs {
			if s.Lo[0] != prev || s.Hi[0] <= s.Lo[0] {
				return false
			}
			prev = s.Hi[0]
			covered += s.Size()
		}
		return prev == n1 && covered == d.Size()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
