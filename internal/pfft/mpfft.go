package pfft

import (
	"encoding/binary"
	"fmt"

	"oopp/internal/mp"
	"oopp/internal/rmi"
	"oopp/internal/wire"
)

// MPTransform3D is the hand-written message-passing baseline for the same
// distributed FFT (experiment E6): identical slab decomposition, local
// kernels and block payloads (geom), but the transpose runs over
// mp.Alltoall instead of remote method execution. x is transformed in
// place — rank r works on its slab of x directly — and is undefined after
// an error; world supplies the ranks.
func MPTransform3D(world *mp.World, x []complex128, n1, n2, n3, sign int) error {
	g, err := newGeom(world.Size(), n1, n2, n3)
	if err != nil {
		return err
	}
	if len(x) != n1*n2*n3 {
		return fmt.Errorf("pfft: array has %d elements, want %d", len(x), n1*n2*n3)
	}
	return world.Run(func(c *mp.Comm) error {
		slab := x[c.Rank()*g.slabLen() : (c.Rank()+1)*g.slabLen()]
		tr := make([]complex128, g.trLen())
		if err := rmi.Share(g.h1, 2*len(slab), func(_, i1 int) error { return g.axis23(slab, i1, sign) }); err != nil {
			return err
		}
		if err := g.alltoall(c, phaseForward, slab, tr); err != nil {
			return err
		}
		if err := rmi.Share(g.h2, 2*len(tr), func(_, i2 int) error { return g.axis1(tr, slab, c.Rank(), i2, sign) }); err != nil {
			return err
		}
		return g.alltoall(c, phaseBack, tr, slab)
	})
}

// alltoall is one transpose of the baseline: the payload for every other
// rank gathered from src; the exchange, in which this rank's own payload is
// empty — its own block stays in the slab, where axis1 reads it; every
// payload received from another rank scattered into dst.
func (g geom) alltoall(c *mp.Comm, phase int, src, dst []complex128) error {
	planes, _ := g.planes(phase)
	send := make([][]byte, g.p)
	for v := range send {
		if v == c.Rank() {
			continue
		}
		e := wire.NewEncoder(binary.MaxVarintLen64 + 16*g.blockLen())
		g.gather(e, phase, c.Rank(), v, 0, planes, src)
		send[v] = e.Bytes()
	}
	recv, err := c.Alltoall(send)
	if err != nil {
		return err
	}
	for u, payload := range recv {
		if u == c.Rank() {
			continue
		}
		d := wire.NewDecoder(payload)
		if n := d.Complex128sLen(); d.Err() != nil || n != g.blockLen() {
			return fmt.Errorf("pfft: rank %d: phase %d block from %d has %d elements (%v), want %d", c.Rank(), phase, u, n, d.Err(), g.blockLen())
		}
		g.scatter(d, phase, u, c.Rank(), 0, planes, dst)
	}
	return nil
}
