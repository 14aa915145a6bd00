package mpi_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"sync/atomic"
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

func TestBarrierSynchronizes(t *testing.T) {
	for name, comms := range transports(t, 5) {
		t.Run(name, func(t *testing.T) {
			var entered atomic.Int32
			runWorld(t, comms, func(c Comm) error {
				if c.Rank() == 3 {
					time.Sleep(30 * time.Millisecond) // straggler
				}
				entered.Add(1)
				if err := Barrier(c); err != nil {
					return err
				}
				if got := entered.Load(); got != int32(c.Size()) {
					return fmt.Errorf("rank %d exited barrier with only %d/%d ranks entered",
						c.Rank(), got, c.Size())
				}
				return nil
			})
		})
	}
}

func TestBcastAllSizesAndRoots(t *testing.T) {
	for _, size := range []int{1, 2, 3, 4, 6, 8} {
		comms := World(size)
		for root := 0; root < size; root++ {
			payload := []byte(fmt.Sprintf("payload-from-%d", root))
			runWorld(t, comms, func(c Comm) error {
				var in []byte
				if c.Rank() == root {
					in = payload
				}
				out, err := Bcast(c, root, in)
				if err != nil {
					return err
				}
				if !bytes.Equal(out, payload) {
					return fmt.Errorf("rank %d got %q", c.Rank(), out)
				}
				return nil
			})
		}
	}
}

func TestBcastBadRoot(t *testing.T) {
	comms := World(2)
	runWorld(t, comms, func(c Comm) error {
		if _, err := Bcast(c, 7, nil); err == nil {
			return fmt.Errorf("bad root accepted")
		}
		return nil
	})
}

func TestGather(t *testing.T) {
	for name, comms := range transports(t, 4) {
		t.Run(name, func(t *testing.T) {
			runWorld(t, comms, func(c Comm) error {
				mine := []byte{byte(c.Rank() * 10)}
				parts, err := Gather(c, 2, mine)
				if err != nil {
					return err
				}
				if c.Rank() != 2 {
					if parts != nil {
						return fmt.Errorf("non-root got parts")
					}
					return nil
				}
				for r, p := range parts {
					if len(p) != 1 || p[0] != byte(r*10) {
						return fmt.Errorf("part %d = %v", r, p)
					}
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

// TestIAllgather checks the asynchronous allgather: ranks start the
// collective, do local work while it is in flight, and join via Wait.
// Back-to-back rounds verify that waiting fully drains the collective
// tags, so sequential requests never mix frames.
func TestIAllgather(t *testing.T) {
	for _, size := range []int{1, 2, 4} {
		comms := World(size)
		runWorld(t, comms, func(c Comm) error {
			for round := 0; round < 3; round++ {
				mine := []byte(fmt.Sprintf("r%d-round%d", c.Rank(), round))
				req := IAllgather(c, mine)
				// Overlapped "computation": a local spin the collective
				// must not disturb.
				acc := 0
				for i := 0; i < 1000; i++ {
					acc += i
				}
				_ = acc
				parts, err := req.Wait()
				if err != nil {
					return err
				}
				// Wait is idempotent.
				if again, err2 := req.Wait(); err2 != nil || len(again) != len(parts) {
					return fmt.Errorf("second Wait diverged: %v", err2)
				}
				select {
				case <-req.Done():
				default:
					return fmt.Errorf("Done not closed after Wait")
				}
				for r, p := range parts {
					if want := fmt.Sprintf("r%d-round%d", r, round); string(p) != want {
						return fmt.Errorf("round %d part %d = %q, want %q", round, r, p, want)
					}
				}
			}
			return nil
		})
	}
}

func TestIAllgatherTCP(t *testing.T) {
	comms := tcpWorld(t, 3)
	runWorld(t, comms, func(c Comm) error {
		req := IAllgather(c, []byte{byte(c.Rank() + 1)})
		parts, err := req.Wait()
		if err != nil {
			return err
		}
		for r, p := range parts {
			if len(p) != 1 || p[0] != byte(r+1) {
				return fmt.Errorf("part %d = %v", r, p)
			}
		}
		return nil
	})
}

// TestIAllgatherErrorPropagates: closing the world mid-collective must
// surface an error through Wait, not hang.
func TestIAllgatherErrorPropagates(t *testing.T) {
	comms := World(3)
	// Only rank 0 participates; the world closes underneath it.
	req := IAllgather(comms[0], []byte("x"))
	comms[1].Close()
	if _, err := req.Wait(); err == nil {
		t.Fatal("no error from allgather on closed world")
	}
}

func TestAllreduceInt64(t *testing.T) {
	comms := World(6)
	runWorld(t, comms, func(c Comm) error {
		sum, err := AllreduceInt64(c, int64(c.Rank()+1), func(a, b int64) int64 { return a + b })
		if err != nil {
			return err
		}
		if sum != 21 { // 1+2+...+6
			return fmt.Errorf("sum = %d, want 21", sum)
		}
		max, err := AllreduceInt64(c, int64(c.Rank()), func(a, b int64) int64 {
			if a > b {
				return a
			}
			return b
		})
		if err != nil {
			return err
		}
		if max != 5 {
			return fmt.Errorf("max = %d, want 5", max)
		}
		return nil
	})
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
	if err := Barrier(c); err != nil {
		t.Fatal(err)
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

// TestCollectiveComposition chains many rounds of mixed collectives on
// both transports — the usage pattern the cluster sync loop produces.
// Run with -race this stresses ordering and reuse of the tag streams.
func TestCollectiveComposition(t *testing.T) {
	for name, comms := range transports(t, 4) {
		t.Run(name, func(t *testing.T) {
			runWorld(t, comms, func(c Comm) error {
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
					root := round % c.Size()
					var in []byte
					if c.Rank() == root {
						in = []byte{byte(round * 3)}
					}
					out, err := Bcast(c, root, in)
					if err != nil {
						return err
					}
					if len(out) != 1 || out[0] != byte(round*3) {
						return fmt.Errorf("round %d: bcast got %v", round, out)
					}
					if err := Barrier(c); err != nil {
						return err
					}
					sum, err := AllreduceInt64(c, int64(c.Rank()), func(a, b int64) int64 { return a + b })
					if err != nil {
						return err
					}
					if sum != 6 { // 0+1+2+3
						return fmt.Errorf("round %d: sum %d", round, sum)
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
// visible too and symmetric across a ring allgather.
func TestCommStatsCollectives(t *testing.T) {
	comms := World(4)
	runWorld(t, comms, func(c Comm) error {
		_, err := Allgather(c, bytes.Repeat([]byte{byte(c.Rank())}, 10))
		return err
	})
	for r, c := range comms {
		cs := c.(Instrumented).Stats()
		// Ring allgather: size-1 sends and receives of 10-byte blocks.
		if cs.MsgsSent != 3 || cs.BytesSent != 30 || cs.MsgsRecv != 3 || cs.BytesRecv != 30 {
			t.Errorf("rank %d: stats = %+v", r, cs)
		}
	}
}
