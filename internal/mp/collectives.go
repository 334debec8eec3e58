package mp

import "fmt"

// Alltoall sends send[r] to every rank r and returns the slice of
// payloads received, indexed by sender. send must have world-size
// entries; send[self] is passed through directly.
func (c *Comm) Alltoall(send [][]byte) ([][]byte, error) {
	if len(send) != c.size {
		return nil, fmt.Errorf("mp: alltoall with %d buffers for %d ranks", len(send), c.size)
	}
	for r := 0; r < c.size; r++ {
		if err := c.send(r, tagAlltoall, send[r]); err != nil {
			return nil, err
		}
	}
	recv := make([][]byte, c.size)
	for r := 0; r < c.size; r++ {
		b, err := c.recv(r, tagAlltoall)
		if err != nil {
			return nil, err
		}
		recv[r] = b
	}
	return recv, nil
}
