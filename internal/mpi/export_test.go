package mpi

// The tests are package mpi_test so that they can run the mesh over
// package tcpnet, which imports this one. These are the internals they
// drive directly.
var (
	SendAsync  = sendAsync
	WriteFrame = writeFrame
	DialRetry  = dialRetry
)

const TagHello = tagHello
