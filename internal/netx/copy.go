package netx

import (
	"io"
	"sync"
)

// copier is a pooled relay buffer. It also stands in for both ends of
// the copy, so io.CopyBuffer sees neither an io.WriterTo nor an
// io.ReaderFrom (a *net.TCPConn's ReadFrom would allocate a buffer of its
// own) and the wrapping itself allocates nothing.
type copier struct {
	buf [32 << 10]byte // io.Copy's own buffer size, so reads chunk identically
	dst io.Writer
	src io.Reader
}

func (c *copier) Read(b []byte) (int, error)  { return c.src.Read(b) }
func (c *copier) Write(b []byte) (int, error) { return c.dst.Write(b) }

var copiers = sync.Pool{New: func() any { return new(copier) }}

// Copy is io.Copy through a pooled 32 KiB buffer: the relay loops of
// every proxy use it so a relayed connection costs no buffer allocation.
// None of them joins two kernel sockets, so no splice is lost.
func Copy(dst io.Writer, src io.Reader) (int64, error) {
	c := copiers.Get().(*copier)
	c.dst, c.src = dst, src
	n, err := io.CopyBuffer(c, c, c.buf[:])
	c.dst, c.src = nil, nil
	copiers.Put(c)
	return n, err
}
