package mpi_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	. "parapll/internal/mpi"
	"parapll/internal/mpi/tcpnet"
)

// netListenProbe reserves an ephemeral port for the rendezvous listener by
// briefly listening on it. The tiny close-to-reuse window is acceptable in
// tests.
func netListenProbe() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr, nil
}

// runWorld runs fn concurrently on every rank and fails the test on any
// error. It returns when all ranks finish.
func runWorld(t *testing.T, comms []Comm, fn func(c Comm) error) {
	t.Helper()
	var wg sync.WaitGroup
	errs := make([]error, len(comms))
	for i, c := range comms {
		wg.Add(1)
		go func(i int, c Comm) {
			defer wg.Done()
			errs[i] = fn(c)
		}(i, c)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
}

// tcpWorld spins up a size-rank TCP communicator inside this process.
func tcpWorld(t *testing.T, size int) []Comm {
	t.Helper()
	rootAddr := "127.0.0.1:0"
	// Need a fixed port for rendezvous: grab one by listening and closing.
	probe, err := netListenProbe()
	if err != nil {
		t.Fatal(err)
	}
	rootAddr = probe
	comms := make([]Comm, size)
	var wg sync.WaitGroup
	errs := make([]error, size)
	for r := 0; r < size; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			c, err := tcpnet.Connect(r, size, rootAddr, "")
			comms[r], errs[r] = c, err
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d connect: %v", r, err)
		}
	}
	t.Cleanup(func() {
		for _, c := range comms {
			c.Close()
		}
	})
	return comms
}

// transports enumerates the communicator factories under test.
func transports(t *testing.T, size int) map[string][]Comm {
	return map[string][]Comm{
		"chan": World(size),
		"tcp":  tcpWorld(t, size),
	}
}

func TestPointToPoint(t *testing.T) {
	for name, comms := range transports(t, 3) {
		t.Run(name, func(t *testing.T) {
			runWorld(t, comms, func(c Comm) error {
				switch c.Rank() {
				case 0:
					for i := 0; i < 10; i++ {
						if err := c.Send(1, TagUser, []byte(fmt.Sprintf("msg-%d", i))); err != nil {
							return err
						}
					}
				case 1:
					for i := 0; i < 10; i++ {
						data, err := c.Recv(0, TagUser)
						if err != nil {
							return err
						}
						if want := fmt.Sprintf("msg-%d", i); string(data) != want {
							return fmt.Errorf("got %q, want %q (order violated)", data, want)
						}
					}
				}
				return nil
			})
		})
	}
}

func TestSelfSend(t *testing.T) {
	for name, comms := range transports(t, 2) {
		t.Run(name, func(t *testing.T) {
			runWorld(t, comms, func(c Comm) error {
				if err := c.Send(c.Rank(), TagUser, []byte("loop")); err != nil {
					return err
				}
				data, err := c.Recv(c.Rank(), TagUser)
				if err != nil {
					return err
				}
				if string(data) != "loop" {
					return fmt.Errorf("self-send got %q", data)
				}
				return nil
			})
		})
	}
}

func TestAllgather(t *testing.T) {
	for _, size := range []int{1, 2, 3, 5, 8} {
		comms := World(size)
		runWorld(t, comms, func(c Comm) error {
			mine := []byte(fmt.Sprintf("rank-%d", c.Rank()))
			parts, err := Allgather(c, mine)
			if err != nil {
				return err
			}
			if len(parts) != size {
				return fmt.Errorf("got %d parts", len(parts))
			}
			for r, p := range parts {
				if want := fmt.Sprintf("rank-%d", r); string(p) != want {
					return fmt.Errorf("part %d = %q, want %q", r, p, want)
				}
			}
			return nil
		})
	}
}

func TestAllgatherTCP(t *testing.T) {
	comms := tcpWorld(t, 4)
	runWorld(t, comms, func(c Comm) error {
		parts, err := Allgather(c, []byte{byte(c.Rank())})
		if err != nil {
			return err
		}
		for r, p := range parts {
			if len(p) != 1 || p[0] != byte(r) {
				return fmt.Errorf("part %d = %v", r, p)
			}
		}
		return nil
	})
}

// TestAllgatherErrorPropagates: closing the world mid-collective must
// surface an error from Allgather, not hang.
func TestAllgatherErrorPropagates(t *testing.T) {
	comms := World(3)
	// Only rank 0 participates; the world closes underneath it.
	errc := make(chan error, 1)
	go func() {
		_, err := Allgather(comms[0], []byte("x"))
		errc <- err
	}()
	comms[1].Close()
	if err := <-errc; err == nil {
		t.Fatal("no error from allgather on closed world")
	}
}

func TestTagMismatchFailsLoudly(t *testing.T) {
	comms := World(2)
	done := make(chan error, 1)
	go func() {
		_, err := comms[1].Recv(0, TagUser+1)
		done <- err
	}()
	if err := comms[0].Send(1, TagUser, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err == nil {
		t.Fatal("tag mismatch not detected")
	}
}

func TestClosedWorldErrors(t *testing.T) {
	comms := World(2)
	comms[0].Close()
	if err := comms[0].Send(1, TagUser, nil); err == nil {
		t.Fatal("send on closed world succeeded")
	}
	if _, err := comms[1].Recv(0, TagUser); err == nil {
		t.Fatal("recv on closed world succeeded")
	}
}

func TestWorldValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for size 0")
		}
	}()
	World(0)
}

func TestConnectTCPValidation(t *testing.T) {
	if _, err := tcpnet.Connect(5, 2, "127.0.0.1:1", ""); err == nil {
		t.Fatal("bad rank accepted")
	}
	// Size-1 world needs no network at all.
	c, err := ConnectTCP(nil, 0, 1, "", "")
	if err != nil {
		t.Fatal(err)
	}
	parts, err := Allgather(c, []byte("solo"))
	if err != nil || len(parts) != 1 || string(parts[0]) != "solo" {
		t.Fatalf("size-1 allgather = %q, %v", parts, err)
	}
	if err := c.Send(0, TagUser, []byte("self")); err != nil {
		t.Fatal(err)
	}
	if data, err := c.Recv(0, TagUser); err != nil || string(data) != "self" {
		t.Fatalf("size-1 self-send = %q, %v", data, err)
	}
	c.Close()
}

// TestRootFailureReleasesPeers: a root whose bootstrap fails — here on a
// hello from a rank that does not exist — hangs up on the ranks it had
// already accepted, so a legitimate rank waiting on it for the address
// book gets an error at once instead of waiting for ever. Neither failed
// rank leaves a goroutine behind.
func TestRootFailureReleasesPeers(t *testing.T) {
	leakCheck(t)
	root, err := netListenProbe()
	if err != nil {
		t.Fatal(err)
	}
	rootErr := make(chan error, 1)
	go func() {
		c, err := tcpnet.Connect(0, 3, root, "")
		if err == nil {
			c.Close()
		}
		rootErr <- err
	}()

	// Rank 1 reaches the root through a relay, so the test knows its
	// connection is queued at the root before the bad one is.
	relay, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer relay.Close()
	peerErr := make(chan error, 1)
	go func() {
		c, err := tcpnet.Connect(1, 3, relay.Addr().String(), "")
		if err == nil {
			c.Close()
		}
		peerErr <- err
	}()
	in, err := relay.Accept()
	if err != nil {
		t.Fatal(err)
	}
	defer in.Close()
	out, err := DialRetry(tcpnet.Network{}, root)
	if err != nil {
		t.Fatal(err)
	}
	defer out.Close()
	go func() { io.Copy(out, in); out.Close() }()
	go func() { io.Copy(in, out); in.Close() }()

	bad, err := net.Dial("tcp", root)
	if err != nil {
		t.Fatal(err)
	}
	defer bad.Close()
	var hello [4]byte
	binary.LittleEndian.PutUint32(hello[:], 7)
	if err := WriteFrame(bad, TagHello, hello[:]); err != nil {
		t.Fatal(err)
	}

	select {
	case err := <-peerErr:
		if err == nil {
			t.Fatal("rank 1 joined a cluster whose root failed")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("rank 1 still waits for the book of a root that failed")
	}
	if err := <-rootErr; err == nil || !strings.Contains(err.Error(), "rank 7") {
		t.Fatalf("root: %v, want the bad hello named", err)
	}
}

func TestSendRankRange(t *testing.T) {
	comms := World(2)
	if err := comms[0].Send(9, TagUser, nil); err == nil {
		t.Fatal("out-of-range send accepted")
	}
	if _, err := comms[0].Recv(-1, TagUser); err == nil {
		t.Fatal("out-of-range recv accepted")
	}
}

// TestCollectiveComposition chains many rounds of allgathers and
// point-to-point ring passes on both transports — the usage pattern the
// cluster sync loop produces, with user messages interleaved. Run with
// -race this stresses ordering and reuse of the tag streams.
func TestCollectiveComposition(t *testing.T) {
	for name, comms := range transports(t, 4) {
		t.Run(name, func(t *testing.T) {
			runWorld(t, comms, func(c Comm) error {
				size := c.Size()
				right, left := (c.Rank()+1)%size, (c.Rank()+size-1)%size
				for round := 0; round < 25; round++ {
					payload := []byte{byte(c.Rank()), byte(round)}
					parts, err := Allgather(c, payload)
					if err != nil {
						return err
					}
					for r, p := range parts {
						if len(p) != 2 || p[0] != byte(r) || p[1] != byte(round) {
							return fmt.Errorf("round %d: part %d = %v", round, r, p)
						}
					}
					errc := SendAsync(c, right, TagUser, []byte{byte(c.Rank()), byte(round * 3)})
					data, err := c.Recv(left, TagUser)
					if err != nil {
						return err
					}
					if err := <-errc; err != nil {
						return err
					}
					if len(data) != 2 || data[0] != byte(left) || data[1] != byte(round*3) {
						return fmt.Errorf("round %d: ring pass got %v", round, data)
					}
				}
				return nil
			})
		})
	}
}

func TestTCPBigPayload(t *testing.T) {
	comms := tcpWorld(t, 2)
	big := make([]byte, 1<<20)
	for i := range big {
		big[i] = byte(i * 7)
	}
	runWorld(t, comms, func(c Comm) error {
		if c.Rank() == 0 {
			return c.Send(1, TagUser, big)
		}
		data, err := c.Recv(0, TagUser)
		if err != nil {
			return err
		}
		if !bytes.Equal(data, big) {
			return fmt.Errorf("big payload corrupted")
		}
		return nil
	})
}

// TestCommStats checks both transports count payload traffic
// identically: one 5-byte message each way between two ranks.
func TestCommStats(t *testing.T) {
	for name, comms := range transports(t, 2) {
		runWorld(t, comms, func(c Comm) error {
			peer := 1 - c.Rank()
			errc := SendAsync(c, peer, TagUser, []byte("hello"))
			if _, err := c.Recv(peer, TagUser); err != nil {
				return err
			}
			return <-errc
		})
		for r, c := range comms {
			ins, ok := c.(Instrumented)
			if !ok {
				t.Fatalf("%s rank %d: transport is not Instrumented", name, r)
			}
			want := CommStats{MsgsSent: 1, BytesSent: 5, MsgsRecv: 1, BytesRecv: 5}
			if got := ins.Stats(); got != want {
				t.Errorf("%s rank %d: stats = %+v, want %+v", name, r, got, want)
			}
		}
	}
}

// TestCommStatsCollectives sanity-checks that collective traffic is
// visible too and symmetric across a ring allgather, on both transports.
func TestCommStatsCollectives(t *testing.T) {
	for name, comms := range transports(t, 4) {
		runWorld(t, comms, func(c Comm) error {
			_, err := Allgather(c, bytes.Repeat([]byte{byte(c.Rank())}, 10))
			return err
		})
		for r, c := range comms {
			cs := c.(Instrumented).Stats()
			// Ring allgather: size-1 sends and receives of 10-byte blocks.
			if cs.MsgsSent != 3 || cs.BytesSent != 30 || cs.MsgsRecv != 3 || cs.BytesRecv != 30 {
				t.Errorf("%s rank %d: stats = %+v", name, r, cs)
			}
		}
	}
}
