// Package mpi is a from-scratch, MPI-flavored message-passing substrate —
// the layer the paper gets from OpenMPI. ParaPLL's cluster algorithm only
// needs rank/size, tagged point-to-point send/receive, and a few
// collectives (barrier, broadcast, gather, allgather); this package
// provides them over two interchangeable transports:
//
//   - a channel transport (World) wiring q in-process ranks together,
//     used to simulate a cluster inside one OS process (tests, benches,
//     examples); and
//   - a TCP transport (ConnectTCP in tcp.go) connecting q OS processes
//     in a full mesh, used by cmd/parapll-node for a real multi-process
//     cluster. It opens no socket itself (Network, in tcp.go).
//
// Collectives are implemented once, on top of the Comm interface, with
// the textbook algorithms whose costs the paper's analysis assumes: a
// binomial-tree broadcast and a dissemination barrier (⌈log₂ q⌉ rounds),
// and a ring allgather (q−1 rounds).
package mpi

import (
	"encoding/binary"
	"fmt"
	"sync/atomic"
)

// Tag discriminates message streams between the same pair of ranks.
// Applications use tags >= TagUser; smaller tags are reserved for
// collectives.
type Tag uint32

// Reserved collective tags.
const (
	tagBarrier Tag = iota
	tagBcast
	tagGather
	tagAllgather
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
// the result, letting collectives post a send and a receive concurrently
// (required to avoid deadlock on rendezvous-style transports).
func sendAsync(c Comm, to int, tag Tag, data []byte) <-chan error {
	errc := make(chan error, 1)
	go func() { errc <- c.Send(to, tag, data) }()
	return errc
}

// Barrier blocks until every rank has entered it, using the dissemination
// algorithm: ⌈log₂ size⌉ rounds of pairwise signals.
func Barrier(c Comm) error {
	size := c.Size()
	if size == 1 {
		return nil
	}
	rank := c.Rank()
	for k := 1; k < size; k <<= 1 {
		to := (rank + k) % size
		from := (rank - k + size) % size
		errc := sendAsync(c, to, tagBarrier, nil)
		if _, err := c.Recv(from, tagBarrier); err != nil {
			return fmt.Errorf("mpi: barrier recv: %w", err)
		}
		if err := <-errc; err != nil {
			return fmt.Errorf("mpi: barrier send: %w", err)
		}
	}
	return nil
}

// Bcast distributes root's data to every rank along a binomial tree
// (⌈log₂ size⌉ rounds — the log q factor in the paper's communication
// cost model). Non-root callers pass nil and receive the payload; the
// root's own buffer is returned as-is.
func Bcast(c Comm, root int, data []byte) ([]byte, error) {
	size := c.Size()
	if root < 0 || root >= size {
		return nil, fmt.Errorf("mpi: bcast root %d out of range", root)
	}
	if size == 1 {
		return data, nil
	}
	rank := c.Rank()
	rel := (rank - root + size) % size
	mask := 1
	for mask < size {
		if rel&mask != 0 {
			src := (rel - mask + root) % size
			var err error
			data, err = c.Recv(src, tagBcast)
			if err != nil {
				return nil, fmt.Errorf("mpi: bcast recv: %w", err)
			}
			break
		}
		mask <<= 1
	}
	mask >>= 1
	for mask > 0 {
		if rel+mask < size {
			dst := (rel + mask + root) % size
			if err := c.Send(dst, tagBcast, data); err != nil {
				return nil, fmt.Errorf("mpi: bcast send: %w", err)
			}
		}
		mask >>= 1
	}
	return data, nil
}

// Gather collects each rank's payload at root. At root the result has one
// entry per rank (root's own at index Rank()); other ranks get nil.
func Gather(c Comm, root int, mine []byte) ([][]byte, error) {
	size := c.Size()
	if root < 0 || root >= size {
		return nil, fmt.Errorf("mpi: gather root %d out of range", root)
	}
	if c.Rank() != root {
		return nil, c.Send(root, tagGather, mine)
	}
	parts := make([][]byte, size)
	parts[root] = mine
	for r := 0; r < size; r++ {
		if r == root {
			continue
		}
		data, err := c.Recv(r, tagGather)
		if err != nil {
			return nil, fmt.Errorf("mpi: gather recv from %d: %w", r, err)
		}
		parts[r] = data
	}
	return parts, nil
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

// Request is an in-flight asynchronous collective started by IAllgather.
// Exactly one goroutine drives the collective; Wait (or Done + Result)
// joins it. A Request must be waited on before the communicator starts
// any other collective — the reserved collective tags carry no round
// ids, so two interleaved collectives on one Comm would mix frames.
type Request struct {
	done  chan struct{}
	parts [][]byte
	err   error
}

// Wait blocks until the collective completes and returns its result.
// Safe to call from a different goroutine than the one that started the
// request, and safe to call more than once.
func (r *Request) Wait() ([][]byte, error) {
	<-r.done
	return r.parts, r.err
}

// Done returns a channel closed when the collective has completed, for
// select-based overlap. After Done is closed, Wait returns immediately.
func (r *Request) Done() <-chan struct{} { return r.done }

// IAllgather starts an allgather on a background goroutine and returns
// immediately, letting the caller overlap computation with the
// collective (the cluster package's overlapped label synchronization).
// The caller must not start another collective on c, nor reuse `mine`,
// until the request completes.
func IAllgather(c Comm, mine []byte) *Request {
	r := &Request{done: make(chan struct{})}
	go func() {
		defer close(r.done)
		r.parts, r.err = Allgather(c, mine)
	}()
	return r
}

// AllreduceInt64 computes op over one int64 per rank and returns the
// result on every rank. op must be associative and commutative.
func AllreduceInt64(c Comm, mine int64, op func(a, b int64) int64) (int64, error) {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(mine))
	parts, err := Allgather(c, buf[:])
	if err != nil {
		return 0, err
	}
	acc := mine
	for r, p := range parts {
		if r == c.Rank() {
			continue
		}
		if len(p) != 8 {
			return 0, fmt.Errorf("mpi: allreduce: bad payload from rank %d", r)
		}
		acc = op(acc, int64(binary.LittleEndian.Uint64(p)))
	}
	return acc, nil
}
