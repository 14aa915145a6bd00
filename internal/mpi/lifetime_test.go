package mpi_test

import (
	"fmt"
	"testing"

	. "parapll/internal/mpi"
)

// TestCloseLeavesNoGoroutine runs point-to-point traffic (concurrent
// sends to one peer included) and allgathers on each transport, then
// closes every rank: nothing either world or Allgather started may
// outlive Close — not a TCP reader, not an allgather's sender.
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
				// Concurrent sends to one peer contend its connection's
				// (or mailbox's) mutex; every frame must arrive whole.
				const sends = 8
				errcs := make([]<-chan error, sends)
				for k := range errcs {
					errcs[k] = SendAsync(c, right, TagUser, []byte{byte(c.Rank()), byte(k)})
				}
				seen := make(map[byte]bool)
				for range errcs {
					data, err := c.Recv(left, TagUser)
					if err != nil || len(data) != 2 || int(data[0]) != left || seen[data[1]] {
						return fmt.Errorf("recv from %d: %v %v", left, data, err)
					}
					seen[data[1]] = true
				}
				for _, errc := range errcs {
					if err := <-errc; err != nil {
						return err
					}
				}
				for k := 0; k < 3; k++ {
					if _, err := Allgather(c, []byte{byte(k)}); err != nil {
						return err
					}
				}
				return nil
			})
			for _, c := range comms {
				if err := c.Close(); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}
