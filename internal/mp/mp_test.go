package mp

import (
	"bytes"
	"fmt"
	"testing"

	"oopp/internal/transport"
)

func eachTransport(t *testing.T, f func(t *testing.T, tr transport.Transport)) {
	t.Run("inproc", func(t *testing.T) { f(t, transport.NewInproc(transport.LinkModel{})) })
	t.Run("tcp", func(t *testing.T) { f(t, transport.TCP{}) })
}

func TestPointToPoint(t *testing.T) {
	eachTransport(t, func(t *testing.T, tr transport.Transport) {
		w, err := NewWorld(tr, 3)
		if err != nil {
			t.Fatalf("world: %v", err)
		}
		defer w.Close()

		err = w.Run(func(c *Comm) error {
			switch c.Rank() {
			case 0:
				if err := c.Send(1, 7, []byte("zero->one")); err != nil {
					return err
				}
				got, err := c.Recv(2, 9)
				if err != nil {
					return err
				}
				if string(got) != "two->zero" {
					return fmt.Errorf("rank0 got %q", got)
				}
			case 1:
				got, err := c.Recv(0, 7)
				if err != nil {
					return err
				}
				if string(got) != "zero->one" {
					return fmt.Errorf("rank1 got %q", got)
				}
			case 2:
				if err := c.Send(0, 9, []byte("two->zero")); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	})
}

func TestTagAndOrderMatching(t *testing.T) {
	tr := transport.NewInproc(transport.LinkModel{})
	w, err := NewWorld(tr, 2)
	if err != nil {
		t.Fatalf("world: %v", err)
	}
	defer w.Close()

	err = w.Run(func(c *Comm) error {
		if c.Rank() == 0 {
			// Interleave two tags; each must be received in order per tag.
			for i := 0; i < 5; i++ {
				if err := c.Send(1, 1, []byte{byte(10 + i)}); err != nil {
					return err
				}
				if err := c.Send(1, 2, []byte{byte(20 + i)}); err != nil {
					return err
				}
			}
			return nil
		}
		// Receive tag 2 first — out of arrival order, must still match.
		for i := 0; i < 5; i++ {
			got, err := c.Recv(0, 2)
			if err != nil {
				return err
			}
			if got[0] != byte(20+i) {
				return fmt.Errorf("tag2[%d] = %d", i, got[0])
			}
		}
		for i := 0; i < 5; i++ {
			got, err := c.Recv(0, 1)
			if err != nil {
				return err
			}
			if got[0] != byte(10+i) {
				return fmt.Errorf("tag1[%d] = %d", i, got[0])
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSelfSend(t *testing.T) {
	tr := transport.NewInproc(transport.LinkModel{})
	w, err := NewWorld(tr, 1)
	if err != nil {
		t.Fatalf("world: %v", err)
	}
	defer w.Close()
	c := w.Comm(0)
	if err := c.Send(0, 5, []byte("self")); err != nil {
		t.Fatalf("send: %v", err)
	}
	got, err := c.Recv(0, 5)
	if err != nil || string(got) != "self" {
		t.Fatalf("recv: %q, %v", got, err)
	}
}

// TestCollectives: every rank sends r*10+v to rank v in one Alltoall and
// gets u*10+r from every rank u, over both transports.
func TestCollectives(t *testing.T) {
	eachTransport(t, func(t *testing.T, tr transport.Transport) {
		const n = 4
		w, err := NewWorld(tr, n)
		if err != nil {
			t.Fatalf("world: %v", err)
		}
		defer w.Close()

		err = w.Run(func(c *Comm) error {
			send := make([][]byte, n)
			for v := 0; v < n; v++ {
				send[v] = []byte{byte(c.Rank()*10 + v)}
			}
			recv, err := c.Alltoall(send)
			if err != nil {
				return err
			}
			for u := 0; u < n; u++ {
				if want := byte(u*10 + c.Rank()); recv[u][0] != want {
					return fmt.Errorf("rank %d alltoall from %d = %d, want %d", c.Rank(), u, recv[u][0], want)
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	})
}

func TestErrors(t *testing.T) {
	tr := transport.NewInproc(transport.LinkModel{})
	if _, err := NewWorld(tr, 0); err == nil {
		t.Error("zero-size world accepted")
	}
	w, err := NewWorld(tr, 2)
	if err != nil {
		t.Fatalf("world: %v", err)
	}
	defer w.Close()
	c := w.Comm(0)
	if err := c.Send(5, 0, nil); err == nil {
		t.Error("send to invalid rank accepted")
	}
	if _, err := c.Recv(-1, 0); err == nil {
		t.Error("recv from invalid rank accepted")
	}
	if _, err := c.Alltoall(make([][]byte, 1)); err == nil {
		t.Error("alltoall wrong buffer count accepted")
	}
	if c.Rank() != 0 || c.Size() != 2 || w.Size() != 2 {
		t.Error("rank/size accessors wrong")
	}
	// Collective tag space is reserved.
	if err := c.Send(1, TagCollectives, nil); err == nil {
		t.Error("reserved tag accepted by Send")
	}
	if _, err := c.Recv(1, TagCollectives+3); err == nil {
		t.Error("reserved tag accepted by Recv")
	}
}

func TestCloseUnblocksRecv(t *testing.T) {
	tr := transport.NewInproc(transport.LinkModel{})
	w, err := NewWorld(tr, 2)
	if err != nil {
		t.Fatalf("world: %v", err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := w.Comm(0).Recv(1, 42)
		done <- err
	}()
	w.Close()
	if err := <-done; err == nil {
		t.Fatal("recv returned nil after close")
	}
	// Idempotent close.
	w.Close()
}

// TestRingAllReduceManual composes an all-reduce from point-to-point
// messages: in n-1 steps every rank passes on to its right what it last
// received from its left, starting with its own value, and adds what
// arrives — so every rank ends with the sum of all of them.
func TestRingAllReduceManual(t *testing.T) {
	tr := transport.NewInproc(transport.LinkModel{})
	const n = 5
	w, err := NewWorld(tr, n)
	if err != nil {
		t.Fatalf("world: %v", err)
	}
	defer w.Close()
	err = w.Run(func(c *Comm) error {
		right := (c.Rank() + 1) % n
		left := (c.Rank() + n - 1) % n
		pass := []byte{byte(c.Rank() + 1)}
		total := int(pass[0])
		for step := 0; step < n-1; step++ {
			if err := c.Send(right, 100+step, pass); err != nil {
				return err
			}
			got, err := c.Recv(left, 100+step)
			if err != nil {
				return err
			}
			pass = got
			total += int(got[0])
		}
		if total != 15 {
			return fmt.Errorf("rank %d: ring all-reduce = %d, want 15", c.Rank(), total)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestLargePayloads(t *testing.T) {
	tr := transport.NewInproc(transport.LinkModel{})
	w, err := NewWorld(tr, 2)
	if err != nil {
		t.Fatalf("world: %v", err)
	}
	defer w.Close()
	big := bytes.Repeat([]byte{0xCD}, 1<<20)
	err = w.Run(func(c *Comm) error {
		if c.Rank() == 0 {
			return c.Send(1, 1, big)
		}
		got, err := c.Recv(0, 1)
		if err != nil {
			return err
		}
		if !bytes.Equal(got, big) {
			return fmt.Errorf("large payload corrupted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
