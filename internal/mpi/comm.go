// Package mpi is a from-scratch, MPI-flavored message-passing substrate —
// the layer the paper gets from OpenMPI. ParaPLL's cluster algorithm only
// needs rank/size, tagged point-to-point send/receive, and one
// collective, the allgather each label synchronization is; this package
// provides them over two interchangeable transports:
//
//   - a channel transport (World) wiring q in-process ranks together,
//     used to simulate a cluster inside one OS process (tests, benches,
//     examples); and
//   - a TCP transport (ConnectTCP in tcp.go) connecting q OS processes
//     in a full mesh, used by cmd/parapll-node for a real multi-process
//     cluster. It opens no socket itself (Network, in tcp.go).
//
// Allgather is implemented once, on top of the Comm interface, as the
// textbook ring (q−1 rounds, each passing one block to the right
// neighbor).
package mpi

import (
	"fmt"
	"sync/atomic"
)

// Tag discriminates message streams between the same pair of ranks.
// Applications use tags >= TagUser; smaller tags are reserved for
// collectives.
type Tag uint32

const (
	// tagAllgather carries Allgather's ring messages.
	tagAllgather Tag = 0
	// TagUser is the first tag available to applications.
	TagUser Tag = 16
)

// Comm is a communicator among a fixed group of ranks. Send and Recv are
// safe for concurrent use; messages between a fixed (sender, receiver,
// tag) triple are delivered in send order.
type Comm interface {
	// Rank is this process's id in [0, Size).
	Rank() int
	// Size is the number of ranks in the communicator.
	Size() int
	// Send delivers data to rank `to` under the given tag. The data slice
	// is owned by the transport after the call.
	Send(to int, tag Tag, data []byte) error
	// Recv blocks for the next message from rank `from` with the given
	// tag. Receiving a message whose tag differs from the expectation is
	// a protocol error and fails loudly.
	Recv(from int, tag Tag) ([]byte, error)
	// Close releases the transport. Further operations fail.
	Close() error
}

// CommStats counts the traffic one rank's Comm has carried, payload
// bytes only (the TCP transport's 8-byte frame headers and bootstrap
// exchange are not counted, so both transports report identical numbers
// for identical algorithm runs).
type CommStats struct {
	MsgsSent  int64 `json:"msgs_sent"`
	BytesSent int64 `json:"bytes_sent"`
	MsgsRecv  int64 `json:"msgs_recv"`
	BytesRecv int64 `json:"bytes_recv"`
}

// Instrumented is implemented by transports that count their traffic.
// Both built-in transports (World and ConnectTCP) do.
type Instrumented interface {
	// Stats returns the traffic this rank has sent and received so far.
	// Safe to call concurrently with ongoing operations.
	Stats() CommStats
}

// commCounters is the shared Instrumented implementation transports
// embed; counting is two atomic adds per message.
type commCounters struct {
	msgsSent, bytesSent, msgsRecv, bytesRecv atomic.Int64
}

func (c *commCounters) countSend(payload int) {
	c.msgsSent.Add(1)
	c.bytesSent.Add(int64(payload))
}

func (c *commCounters) countRecv(payload int) {
	c.msgsRecv.Add(1)
	c.bytesRecv.Add(int64(payload))
}

// Stats implements Instrumented.
func (c *commCounters) Stats() CommStats {
	return CommStats{
		MsgsSent:  c.msgsSent.Load(),
		BytesSent: c.bytesSent.Load(),
		MsgsRecv:  c.msgsRecv.Load(),
		BytesRecv: c.bytesRecv.Load(),
	}
}

// sendAsync fires a Send on its own goroutine and returns a channel with
// the result, letting Allgather post a send and a receive concurrently
// (required to avoid deadlock on rendezvous-style transports).
func sendAsync(c Comm, to int, tag Tag, data []byte) <-chan error {
	errc := make(chan error, 1)
	go func() { errc <- c.Send(to, tag, data) }()
	return errc
}

// Allgather gives every rank every rank's payload, using the ring
// algorithm: size−1 rounds, each passing one block to the right neighbor.
func Allgather(c Comm, mine []byte) ([][]byte, error) {
	size := c.Size()
	parts := make([][]byte, size)
	rank := c.Rank()
	parts[rank] = mine
	if size == 1 {
		return parts, nil
	}
	right := (rank + 1) % size
	left := (rank - 1 + size) % size
	cur := rank
	for step := 0; step < size-1; step++ {
		errc := sendAsync(c, right, tagAllgather, parts[cur])
		prev := (cur - 1 + size) % size
		data, err := c.Recv(left, tagAllgather)
		if err != nil {
			return nil, fmt.Errorf("mpi: allgather recv: %w", err)
		}
		if err := <-errc; err != nil {
			return nil, fmt.Errorf("mpi: allgather send: %w", err)
		}
		parts[prev] = data
		cur = prev
	}
	return parts, nil
}
