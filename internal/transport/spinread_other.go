//go:build !unix

package transport

import (
	"io"
	"net"
)

// connReader returns what the read loop reads conn through. Off unix the
// spin-then-park read (spinread_unix.go) is not built: the loop reads the
// connection plainly and parks on every empty read.
func (n *Node) connReader(conn net.Conn) io.Reader { return conn }
