package main

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
)

// respConn is a pipelining RESP2 client that allocates nothing per request
// once warm, so the process's Go allocation count measures the server.
type respConn struct {
	c   net.Conn
	br  *bufio.Reader
	bw  *bufio.Writer
	num []byte
	buf []byte
}

func dialResp(network, addr string) (*respConn, error) {
	c, err := net.Dial(network, addr)
	if err != nil {
		return nil, err
	}
	return &respConn{c: c, br: bufio.NewReaderSize(c, 64<<10), bw: bufio.NewWriterSize(c, 64<<10),
		num: make([]byte, 0, 32), buf: make([]byte, 0, 4096)}, nil
}

func (c *respConn) close() error { return c.c.Close() }

func (c *respConn) header(prefix byte, n int) {
	c.num = append(c.num[:0], prefix)
	c.num = strconv.AppendInt(c.num, int64(n), 10)
	c.num = append(c.num, '\r', '\n')
	c.bw.Write(c.num)
}

func (c *respConn) bulk(b []byte) {
	c.header('$', len(b))
	c.bw.Write(b)
	c.bw.WriteString("\r\n")
}

var (
	cmdGET = []byte("GET")
	cmdSET = []byte("SET")
)

// get queues GET key.
func (c *respConn) get(key []byte) {
	c.header('*', 2)
	c.bulk(cmdGET)
	c.bulk(key)
}

// set queues SET key value.
func (c *respConn) set(key, value []byte) {
	c.header('*', 3)
	c.bulk(cmdSET)
	c.bulk(key)
	c.bulk(value)
}

// command queues an arbitrary command (rare: SAVE, INFO, DBSIZE, PING).
func (c *respConn) command(args ...string) {
	c.header('*', len(args))
	for _, a := range args {
		c.bulk([]byte(a))
	}
}

func (c *respConn) flush() error { return c.bw.Flush() }

// reply is one decoded reply. text aliases the connection's buffer and is
// valid until the next read.
type reply struct {
	kind byte // '+', '-', ':', '$'
	text []byte
	n    int64
	nil  bool
}

var errProto = errors.New("benchmark: malformed RESP reply")

func parseInt(b []byte) (int64, error) {
	if len(b) == 0 {
		return 0, errProto
	}
	neg := b[0] == '-'
	if neg {
		b = b[1:]
	}
	var n int64
	for _, d := range b {
		if d < '0' || d > '9' {
			return 0, errProto
		}
		n = n*10 + int64(d-'0')
	}
	if neg {
		n = -n
	}
	return n, nil
}

// read decodes the next reply (simple string, error, integer or bulk).
func (c *respConn) read() (reply, error) {
	line, err := c.br.ReadSlice('\n')
	if err != nil {
		return reply{}, err
	}
	if len(line) < 3 || line[len(line)-2] != '\r' {
		return reply{}, errProto
	}
	body := line[1 : len(line)-2]
	switch line[0] {
	case '+', '-':
		c.buf = append(c.buf[:0], body...)
		return reply{kind: line[0], text: c.buf}, nil
	case ':':
		n, err := parseInt(body)
		return reply{kind: ':', n: n}, err
	case '$':
		n, err := parseInt(body)
		if err != nil {
			return reply{}, err
		}
		if n < 0 {
			return reply{kind: '$', nil: true}, nil
		}
		if cap(c.buf) < int(n)+2 {
			c.buf = make([]byte, n+2)
		}
		c.buf = c.buf[:n+2]
		if _, err := io.ReadFull(c.br, c.buf); err != nil {
			return reply{}, err
		}
		return reply{kind: '$', text: c.buf[:n]}, nil
	}
	return reply{}, fmt.Errorf("%w: type %q", errProto, line[0])
}

// do sends one command and reads its reply.
func (c *respConn) do(args ...string) (reply, error) {
	c.command(args...)
	if err := c.flush(); err != nil {
		return reply{}, err
	}
	return c.read()
}
