package mpi

import (
	"fmt"
	"testing"
)

// TestCloseLeavesNoGoroutine runs point-to-point traffic, every
// collective and an IAllgather on each transport, then closes every
// rank: nothing either world or the collectives started may outlive
// Close — not a TCP reader, not a collective's sender, not the
// goroutine driving an IAllgather.
func TestCloseLeavesNoGoroutine(t *testing.T) {
	for name, world := range map[string]func(*testing.T) []Comm{
		"chan": func(*testing.T) []Comm { return World(3) },
		"tcp":  func(t *testing.T) []Comm { return tcpWorld(t, 3) },
	} {
		t.Run(name, func(t *testing.T) {
			leakCheck(t)
			comms := world(t)
			runWorld(t, comms, func(c Comm) error {
				size := c.Size()
				right, left := (c.Rank()+1)%size, (c.Rank()+size-1)%size
				errc := sendAsync(c, right, TagUser, []byte{byte(c.Rank())})
				if data, err := c.Recv(left, TagUser); err != nil || len(data) != 1 || int(data[0]) != left {
					return fmt.Errorf("recv from %d: %v %v", left, data, err)
				}
				if err := <-errc; err != nil {
					return err
				}
				if err := Barrier(c); err != nil {
					return err
				}
				if _, err := Bcast(c, 1, []byte("b")); err != nil {
					return err
				}
				if _, err := Gather(c, 2, []byte("g")); err != nil {
					return err
				}
				if _, err := Allgather(c, []byte("a")); err != nil {
					return err
				}
				if _, err := AllreduceInt64(c, 1, func(a, b int64) int64 { return a + b }); err != nil {
					return err
				}
				_, err := IAllgather(c, []byte("i")).Wait()
				return err
			})
			for _, c := range comms {
				if err := c.Close(); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}
