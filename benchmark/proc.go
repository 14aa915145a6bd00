package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// child is one process this benchmark started. It leads its own
// process group, so a kill reaches anything it forked. One goroutine
// per child waits for it; everyone else waits on done.
type child struct {
	cmd  *exec.Cmd
	done chan struct{} // closed once the process has been reaped
	err  error         // cmd.Wait's result, valid after done
}

// children tracks every child not yet reaped, so reapAll on every exit
// path leaves no server behind.
var children = struct {
	sync.Mutex
	live map[*child]bool
}{live: map[*child]bool{}}

// startChild starts bin with its output going to w.
func startChild(w io.Writer, bin string, args ...string) (*child, error) {
	cmd := exec.Command(bin, args...)
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	cmd.Stdout, cmd.Stderr = w, w
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", filepath.Base(bin), err)
	}
	c := &child{cmd: cmd, done: make(chan struct{})}
	children.Lock()
	children.live[c] = true
	children.Unlock()
	go func() {
		c.err = cmd.Wait()
		children.Lock()
		delete(children.live, c)
		children.Unlock()
		close(c.done)
	}()
	return c, nil
}

// kill sends SIGKILL to the child's process group and waits until it
// has been reaped.
func (c *child) kill() {
	_ = syscall.Kill(-c.cmd.Process.Pid, syscall.SIGKILL) // it may have exited already
	<-c.done
}

// cpu reports a reaped child's user plus system time.
func (c *child) cpu() time.Duration {
	ru := c.cmd.ProcessState.SysUsage().(*syscall.Rusage)
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSS reads a live child's peak resident set from /proc (VmHWM).
// Not rusage's ru_maxrss: Go starts children with vfork semantics, and
// at exec Linux folds the peak of the address space being left — this
// benchmark's — into the child's ru_maxrss, so a child smaller than the
// benchmark would report the benchmark.
func (c *child) peakRSS() (mb float64, err error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", c.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	_, rest, ok := strings.Cut(string(data), "VmHWM:")
	if !ok {
		return 0, fmt.Errorf("/proc/%d/status has no VmHWM (process exiting)", c.cmd.Process.Pid)
	}
	f := strings.Fields(rest)
	kb, err := strconv.ParseFloat(f[0], 64)
	if err != nil || len(f) < 2 || f[1] != "kB" {
		return 0, fmt.Errorf("unparsable VmHWM %q", strings.SplitN(rest, "\n", 2)[0])
	}
	return kb / 1024, nil
}

// reapAll kills every live child's process group and waits for it. It
// returns how many were still running — non-zero after a run that
// believed itself finished means a leak, and the run refuses to report.
func reapAll() int {
	children.Lock()
	var live []*child
	for c := range children.live {
		live = append(live, c)
	}
	children.Unlock()
	for _, c := range live {
		c.kill()
	}
	return len(live)
}

// usage is what a finished child cost.
type usage struct {
	wall   time.Duration
	cpu    time.Duration // user + system
	rssMB  float64       // peak resident set
	stdout string
}

// runTool runs one of the program's batch binaries to completion and
// returns its wall time, CPU time and peak RSS — the last reading of
// VmHWM, polled every few milliseconds because /proc is gone once the
// child is. A non-zero exit is an error: the benchmark refuses to report
// past an abnormal child.
func runTool(bin string, args ...string) (usage, error) {
	var out bytes.Buffer
	t0 := time.Now()
	c, err := startChild(&out, bin, args...)
	if err != nil {
		return usage{}, err
	}
	rss := 0.0
	for running := true; running; {
		select {
		case <-c.done:
			running = false
		case <-time.After(4 * time.Millisecond):
			if mb, err := c.peakRSS(); err == nil {
				rss = mb
			}
		}
	}
	wall := time.Since(t0)
	if c.err != nil {
		return usage{}, fmt.Errorf("%s %s: %w\n%s", filepath.Base(bin), strings.Join(args, " "), c.err, out.String())
	}
	return usage{wall: wall, cpu: c.cpu(), rssMB: rss, stdout: out.String()}, nil
}

// server is one running parapll-server.
type server struct {
	*child
	base string // http://127.0.0.1:port
}

// freePort asks the kernel for an unused loopback port. The server has
// no "pick a port and tell me" mode, so there is a small window between
// closing this listener and the server's bind; a lost race shows up as a
// failed start, which aborts the run rather than skewing it.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startServer execs parapll-server with args plus a fresh -addr and
// returns once /readyz answers 200 on c. Readiness is polled every
// millisecond: set-up is hundreds of milliseconds, so the poll's
// quantisation is well under the metric's run-to-run spread. The
// server's output goes to logPath, which is quoted if it dies.
func startServer(bin, logPath string, c *client, args ...string) (*server, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	log, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	defer log.Close() // the child keeps its own descriptor
	addr := "127.0.0.1:" + strconv.Itoa(port)
	ch, err := startChild(log, bin, append(args, "-addr", addr)...)
	if err != nil {
		return nil, err
	}
	s := &server{child: ch, base: "http://" + addr}
	deadline := time.Now().Add(60 * time.Second)
	for {
		if code, _, err := c.do("GET", s.base+"/readyz", nil); err == nil && code == http.StatusOK {
			return s, nil
		}
		select {
		case <-ch.done:
			logged, _ := os.ReadFile(logPath)
			return nil, fmt.Errorf("parapll-server exited before becoming ready (%v):\n%s", ch.err, logged)
		default:
		}
		if time.Now().After(deadline) {
			ch.kill()
			return nil, fmt.Errorf("parapll-server not ready after 60s (log %s)", logPath)
		}
		time.Sleep(time.Millisecond)
	}
}

// stop kills the server — the `kill -9` of the crash cycles, and also
// the ordinary stop: the server has no graceful-shutdown path, so
// SIGTERM would end it the same way — and returns its lifetime CPU and
// peak RSS. A server that is already gone reports no RSS; whoever
// talked to it last has failed the run by then.
func (s *server) stop() usage {
	rss, _ := s.peakRSS()
	s.kill()
	return usage{cpu: s.cpu(), rssMB: rss}
}

// cpuNow reads the server's cumulative user+system CPU time from
// /proc/<pid>/stat (fields 14 and 15, in clock ticks of 10 ms).
func (s *server) cpuNow() (time.Duration, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may contain spaces; fields after the
	// closing parenthesis are safe to split.
	rest := string(data[bytes.LastIndexByte(data, ')')+2:])
	f := strings.Fields(rest)
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line %q", data)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("unparsable /proc stat line %q", data)
	}
	const tick = 10 * time.Millisecond // USER_HZ is 100 on every Linux ABI Go supports
	return time.Duration(ut+st) * tick, nil
}

// client is one keep-alive HTTP/1.1 connection driven from a single
// goroutine: write the request, block reading the reply. One per role
// (reader, writer), never a pool, so every latency is one connection's
// closed-loop round trip. net/http's Transport is not used: its read and
// write loops add two goroutine hand-offs — vCPU wake-ups on this
// machine — to every request, which tripled the round trip (150 µs
// against 50 µs) and buried the program's share of it.
type client struct {
	addr string // host:port of the last request, to notice a restarted server
	conn net.Conn
	rd   *bufio.Reader
	req  bytes.Buffer
}

func newClient() *client { return &client{} }

func (c *client) close() {
	if c.conn != nil {
		c.conn.Close()
		c.conn = nil
	}
}

// do issues one request to a http://host:port/path URL and returns
// status and body. The body is read to the end so the connection is
// reused; any error closes it, and the next call dials again.
func (c *client) do(method, url string, body []byte) (int, []byte, error) {
	hostPath, ok := strings.CutPrefix(url, "http://")
	if !ok {
		return 0, nil, fmt.Errorf("client: %q is not an http:// URL", url)
	}
	addr, path, _ := strings.Cut(hostPath, "/")
	if c.conn == nil || c.addr != addr {
		c.close()
		conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
		if err != nil {
			return 0, nil, err
		}
		c.addr, c.conn, c.rd = addr, conn, bufio.NewReaderSize(conn, 64<<10)
	}
	target := "/" + path
	if method == "OPTIONS" && path == "*" {
		target = "*" // the server-wide form, see floor
	}
	c.req.Reset()
	fmt.Fprintf(&c.req, "%s %s HTTP/1.1\r\nHost: %s\r\n", method, target, addr)
	if body != nil {
		fmt.Fprintf(&c.req, "Content-Type: application/json\r\nContent-Length: %d\r\n", len(body))
	}
	c.req.WriteString("\r\n")
	c.req.Write(body)
	_ = c.conn.SetDeadline(time.Now().Add(30 * time.Second))
	if _, err := c.conn.Write(c.req.Bytes()); err != nil {
		c.close()
		return 0, nil, err
	}
	resp, err := http.ReadResponse(c.rd, nil)
	if err != nil {
		c.close()
		return 0, nil, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.Close {
		c.close()
	}
	return resp.StatusCode, data, err
}

// floor issues OPTIONS *, the reference every latency on a
// syscall-bound path is divided by (see floorNominal). net/http's
// server answers it itself, without calling the program's handler: the
// round trip is the standard library, the kernel and the machine, and
// none of this repository's code.
func (c *client) floor(base string) error {
	code, body, err := c.do("OPTIONS", base+"/*", nil)
	if err == nil && (code != http.StatusOK || len(body) != 0) {
		err = fmt.Errorf("OPTIONS *: HTTP %d with %d body bytes; want net/http's own empty 200", code, len(body))
	}
	return err
}

// fetch issues one request and returns the body of its 200 reply.
// Decoding is the caller's, so that a timed region ends when the reply's
// bytes have been read and holds none of the benchmark's own JSON work.
func (c *client) fetch(method, url string, body []byte) ([]byte, error) {
	code, data, err := c.do(method, url, body)
	if err != nil {
		return nil, err
	}
	if code != http.StatusOK {
		_, path, _ := strings.Cut(strings.TrimPrefix(url, "http://"), "/")
		return nil, fmt.Errorf("%s /%s: HTTP %d: %s", method, path, code, data)
	}
	return data, nil
}

// decodeDist reads the distance out of a /query reply.
func decodeDist(body []byte) (int64, error) {
	var r struct {
		Dist int64 `json:"dist"`
	}
	if err := json.Unmarshal(body, &r); err != nil {
		return 0, fmt.Errorf("/query reply: %w", err)
	}
	return r.Dist, nil
}

// decodeDists reads the distances out of a /batch reply.
func decodeDists(body []byte) ([]int64, error) {
	var r struct {
		Dists []int64 `json:"dists"`
	}
	if err := json.Unmarshal(body, &r); err != nil {
		return nil, fmt.Errorf("/batch reply: %w", err)
	}
	return r.Dists, nil
}

// query issues GET /query for one pair and returns the wire distance.
// For untimed paths; timed ones call fetch and decode afterwards.
func (c *client) query(url string) (int64, error) {
	body, err := c.fetch("GET", url, nil)
	if err != nil {
		return 0, err
	}
	return decodeDist(body)
}

// update posts one /update and reports whether it was acknowledged.
func (c *client) update(url string, body []byte) error {
	_, err := c.fetch("POST", url, body)
	return err
}
