// Package tcpnet runs package mpi's TCP mesh over the operating system's
// sockets. It is the only package here that links the network stack, so
// only the tools that join a cluster over TCP (parapll-node) pay for it.
package tcpnet

import (
	"net"
	"time"

	"parapll/internal/mpi"
)

// Connect joins a TCP communicator of the given size as the given rank;
// see mpi.ConnectTCP for rootAddr, bindAddr and the bootstrap.
func Connect(rank, size int, rootAddr, bindAddr string) (mpi.Comm, error) {
	return mpi.ConnectTCP(Network{}, rank, size, rootAddr, bindAddr)
}

// Network is mpi.Network over TCP sockets.
type Network struct{}

// Listen implements mpi.Network.
func (Network) Listen(addr string) (mpi.Listener, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	return listener{ln.(*net.TCPListener)}, nil
}

// Dial implements mpi.Network.
func (Network) Dial(addr string, timeout time.Duration) (mpi.Conn, error) {
	return net.DialTimeout("tcp", addr, timeout)
}

type listener struct{ *net.TCPListener }

func (l listener) Accept() (mpi.Conn, error) { return l.TCPListener.Accept() }

func (l listener) Addr() string { return l.TCPListener.Addr().String() }
