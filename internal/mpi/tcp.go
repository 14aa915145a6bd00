package mpi

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// TCP transport: q OS processes connected in a full mesh.
//
// Bootstrap protocol. Rank 0 listens on a well-known rendezvous address;
// every other rank opens its own listener, dials rank 0 and sends a hello
// (its rank and listener address). Rank 0 gathers all hellos, then sends
// every rank the full address book over the same connections, which stay
// open as the permanent rank↔0 links. Finally rank i dials rank j's
// listener for every 0 < j < i (identifying itself with a rank header),
// completing the mesh. Every bootstrap read and accept has the setup
// deadline, and a rank whose bootstrap fails closes every connection it
// made or accepted, so no rank waits on one that gave up. Messages are
// length-prefixed frames: [u32 len][u32 tag][payload].
//
// The mesh asks its caller for the sockets (Network), so this package
// links no network stack: package tcpnet supplies the operating system's,
// and only the tools that run a cluster over TCP link it.

const (
	tcpMaxFrame      = 1 << 30
	tcpDialTimeout   = 10 * time.Second
	tcpSetupDeadline = 60 * time.Second
	tagHello         = Tag(0xFFFFFFF0)
	tagBook          = Tag(0xFFFFFFF1)
	tagMeshHello     = Tag(0xFFFFFFF2)
)

// Network is what the TCP mesh needs of a stream network: a listener on
// a local address and a dial to a remote one.
type Network interface {
	Listen(addr string) (Listener, error)
	Dial(addr string, timeout time.Duration) (Conn, error)
}

// Listener accepts the connections other ranks dial to this one.
type Listener interface {
	Accept() (Conn, error)
	// SetDeadline bounds every Accept until the deadline is moved.
	SetDeadline(t time.Time) error
	// Addr is the address other ranks dial, as Network.Dial takes it.
	Addr() string
	Close() error
}

// Conn is one connection of the mesh; a net.Conn is one.
type Conn interface {
	io.ReadWriteCloser
	SetDeadline(t time.Time) error
}

type tcpComm struct {
	commCounters
	rank, size int
	peers      []*tcpPeer // peers[r] for r != rank, nil at own rank
	boxes      []*mailbox
	ln         Listener
	closed     atomic.Bool
	readers    sync.WaitGroup
}

type tcpPeer struct {
	mu   sync.Mutex
	conn Conn
}

// dialRetry dials addr, retrying with backoff until the setup deadline —
// ranks start in arbitrary order, so the target may not be listening yet.
func dialRetry(nw Network, addr string) (Conn, error) {
	deadline := time.Now().Add(tcpSetupDeadline)
	backoff := 5 * time.Millisecond
	for {
		conn, err := nw.Dial(addr, tcpDialTimeout)
		if err == nil {
			return conn, nil
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("mpi: dial %s: %w", addr, err)
		}
		time.Sleep(backoff)
		if backoff < 500*time.Millisecond {
			backoff *= 2
		}
	}
}

func writeFrame(w io.Writer, tag Tag, data []byte) error {
	var hdr [8]byte
	if len(data) > tcpMaxFrame {
		return fmt.Errorf("mpi: frame of %d bytes exceeds limit", len(data))
	}
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(data)))
	binary.LittleEndian.PutUint32(hdr[4:8], uint32(tag))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	if len(data) > 0 {
		if _, err := w.Write(data); err != nil {
			return err
		}
	}
	return nil
}

func readFrame(r io.Reader) (Tag, []byte, error) {
	var hdr [8]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[0:4])
	tag := Tag(binary.LittleEndian.Uint32(hdr[4:8]))
	if n > tcpMaxFrame {
		return 0, nil, fmt.Errorf("mpi: oversized frame (%d bytes)", n)
	}
	data := make([]byte, n)
	if _, err := io.ReadFull(r, data); err != nil {
		return 0, nil, err
	}
	return tag, data, nil
}

// ConnectTCP joins a TCP communicator of the given size as the given
// rank, over the sockets nw makes (a size-1 communicator makes none, and
// nw may be nil). rootAddr is the rendezvous address rank 0 listens on;
// every rank must pass the same value. bindAddr is the local address
// non-root ranks listen on for mesh connections ("" means
// "127.0.0.1:0"). The call blocks until the full mesh is up, so all
// ranks must start within the setup deadline.
func ConnectTCP(nw Network, rank, size int, rootAddr, bindAddr string) (Comm, error) {
	if size < 1 || rank < 0 || rank >= size {
		return nil, fmt.Errorf("mpi: bad rank/size %d/%d", rank, size)
	}
	if bindAddr == "" {
		bindAddr = "127.0.0.1:0"
	}
	c := &tcpComm{
		rank:  rank,
		size:  size,
		peers: make([]*tcpPeer, size),
		boxes: make([]*mailbox, size),
	}
	for r := 0; r < size; r++ {
		c.boxes[r] = newMailbox()
	}
	if size == 1 {
		return c, nil
	}
	var err error
	if rank == 0 {
		err = c.bootstrapRoot(nw, rootAddr)
	} else {
		err = c.bootstrapPeer(nw, rootAddr, bindAddr)
	}
	if err != nil {
		c.Close()
		return nil, err
	}
	// Start one reader per peer connection, with no deadline: the
	// bootstrap's ended with it.
	for r, p := range c.peers {
		if p == nil {
			continue
		}
		p.conn.SetDeadline(time.Time{})
		c.readers.Add(1)
		go c.readLoop(r, p.conn)
	}
	return c, nil
}

func (c *tcpComm) bootstrapRoot(nw Network, rootAddr string) error {
	ln, err := nw.Listen(rootAddr)
	if err != nil {
		return fmt.Errorf("mpi: root listen: %w", err)
	}
	c.ln = ln
	deadline := time.Now().Add(tcpSetupDeadline)
	book := make([]string, c.size)
	book[0] = rootAddr
	for got := 0; got < c.size-1; got++ {
		ln.SetDeadline(deadline)
		conn, err := ln.Accept()
		if err != nil {
			return fmt.Errorf("mpi: root accept: %w", err)
		}
		conn.SetDeadline(deadline)
		tag, data, err := readFrame(conn)
		if err != nil || tag != tagHello || len(data) < 4 {
			conn.Close()
			return fmt.Errorf("mpi: bad hello (tag %d): %v", tag, err)
		}
		r := int(binary.LittleEndian.Uint32(data[0:4]))
		if r <= 0 || r >= c.size || c.peers[r] != nil {
			conn.Close()
			return fmt.Errorf("mpi: hello from invalid or duplicate rank %d", r)
		}
		book[r] = string(data[4:])
		// A peer from here on: should the bootstrap fail, Close hangs up
		// on it and the rank behind it stops waiting for the book.
		c.peers[r] = &tcpPeer{conn: conn}
	}
	payload := []byte(strings.Join(book, "\n"))
	for r := 1; r < c.size; r++ {
		if err := writeFrame(c.peers[r].conn, tagBook, payload); err != nil {
			return fmt.Errorf("mpi: send book to %d: %w", r, err)
		}
	}
	return nil
}

func (c *tcpComm) bootstrapPeer(nw Network, rootAddr, bindAddr string) error {
	ln, err := nw.Listen(bindAddr)
	if err != nil {
		return fmt.Errorf("mpi: listen: %w", err)
	}
	c.ln = ln
	conn0, err := dialRetry(nw, rootAddr)
	if err != nil {
		return fmt.Errorf("mpi: dial root: %w", err)
	}
	c.peers[0] = &tcpPeer{conn: conn0}
	conn0.SetDeadline(time.Now().Add(tcpSetupDeadline))
	hello := make([]byte, 4+len(ln.Addr()))
	binary.LittleEndian.PutUint32(hello[0:4], uint32(c.rank))
	copy(hello[4:], ln.Addr())
	if err := writeFrame(conn0, tagHello, hello); err != nil {
		return fmt.Errorf("mpi: send hello: %w", err)
	}
	tag, data, err := readFrame(conn0)
	if err != nil || tag != tagBook {
		return fmt.Errorf("mpi: read book (tag %d): %v", tag, err)
	}
	book := strings.Split(string(data), "\n")
	if len(book) != c.size {
		return fmt.Errorf("mpi: book has %d entries, want %d", len(book), c.size)
	}
	// Dial every lower non-root rank.
	for j := 1; j < c.rank; j++ {
		conn, err := dialRetry(nw, book[j])
		if err != nil {
			return fmt.Errorf("mpi: dial rank %d at %s: %w", j, book[j], err)
		}
		c.peers[j] = &tcpPeer{conn: conn}
		var id [4]byte
		binary.LittleEndian.PutUint32(id[:], uint32(c.rank))
		if err := writeFrame(conn, tagMeshHello, id[:]); err != nil {
			return fmt.Errorf("mpi: mesh hello to %d: %w", j, err)
		}
	}
	// Accept every higher rank.
	deadline := time.Now().Add(tcpSetupDeadline)
	for need := c.size - 1 - c.rank; need > 0; need-- {
		ln.SetDeadline(deadline)
		conn, err := ln.Accept()
		if err != nil {
			return fmt.Errorf("mpi: accept mesh: %w", err)
		}
		conn.SetDeadline(deadline)
		tag, data, err := readFrame(conn)
		if err != nil || tag != tagMeshHello || len(data) != 4 {
			conn.Close()
			return fmt.Errorf("mpi: bad mesh hello: %v", err)
		}
		i := int(binary.LittleEndian.Uint32(data))
		if i <= c.rank || i >= c.size || c.peers[i] != nil {
			conn.Close()
			return fmt.Errorf("mpi: mesh hello from invalid rank %d", i)
		}
		c.peers[i] = &tcpPeer{conn: conn}
	}
	return nil
}

func (c *tcpComm) readLoop(from int, conn Conn) {
	defer c.readers.Done()
	for {
		tag, data, err := readFrame(conn)
		if err != nil {
			// Connection down: wake any blocked receiver.
			c.boxes[from].close()
			return
		}
		if c.boxes[from].put(chanMsg{tag: tag, data: data}) != nil {
			return
		}
	}
}

// Rank implements Comm.
func (c *tcpComm) Rank() int { return c.rank }

// Size implements Comm.
func (c *tcpComm) Size() int { return c.size }

// Send implements Comm.
func (c *tcpComm) Send(to int, tag Tag, data []byte) error {
	if to < 0 || to >= c.size {
		return fmt.Errorf("mpi: send to rank %d out of range", to)
	}
	if to == c.rank {
		if err := c.boxes[c.rank].put(chanMsg{tag: tag, data: data}); err != nil {
			return err
		}
		c.countSend(len(data))
		return nil
	}
	if c.closed.Load() {
		return errors.New("mpi: send on closed comm")
	}
	p := c.peers[to]
	p.mu.Lock()
	err := writeFrame(p.conn, tag, data)
	p.mu.Unlock()
	if err != nil {
		return err
	}
	c.countSend(len(data))
	return nil
}

// Recv implements Comm.
func (c *tcpComm) Recv(from int, tag Tag) ([]byte, error) {
	if from < 0 || from >= c.size {
		return nil, fmt.Errorf("mpi: recv from rank %d out of range", from)
	}
	data, err := c.boxes[from].take(tag)
	if err != nil {
		return nil, err
	}
	c.countRecv(len(data))
	return data, nil
}

// Close implements Comm.
func (c *tcpComm) Close() error {
	if c.closed.Swap(true) {
		return nil
	}
	if c.ln != nil {
		c.ln.Close()
	}
	for _, p := range c.peers {
		if p != nil {
			p.conn.Close()
		}
	}
	for _, mb := range c.boxes {
		mb.close()
	}
	c.readers.Wait()
	return nil
}
