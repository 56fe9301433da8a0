// Package server puts back the network layer the paper's application study
// removed (§6.3 runs memcached "as a library ... instead of sending requests
// over a socket"): a concurrent TCP/unix-socket server that speaks a RESP2
// (Redis serialization protocol) subset over the persistent kvstore, with
// per-connection goroutines and request pipelining. The entire dataset lives
// in the recoverable ralloc heap, so a crashed server restarts through
// Open → Recover → AttachBounded and keeps serving — see crash_test.go and
// cmd/ralloc-serve.
package server

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Protocol limits: a garbage or hostile header must not make the server
// allocate unboundedly.
const (
	maxArgs    = 1 << 20  // arguments per command
	maxBulkLen = 64 << 20 // bytes per bulk string
	maxLineLen = 64 << 10 // bytes per protocol line
	// maxReplyDepth bounds nested array replies. readReply recurses per
	// nesting level, and Go stack exhaustion is a fatal error, not a
	// recoverable panic — FuzzParseReply found that a stream of "*1\r\n"
	// headers (4 bytes per level) could otherwise run the decoder out of
	// stack. Real replies in this protocol subset nest at most 1 deep.
	maxReplyDepth = 32
)

// maxCommandBytes caps one command's cumulative declared bulk payload:
// maxArgs×maxBulkLen individually-legal bulks would otherwise let a single
// command demand terabytes of transient allocation before dispatch (or the
// transaction byte meter) ever sees it. The declared length is checked
// before each bulk's buffer is allocated. A var, not a const, so the
// oversized-command test doesn't need to stream real gigabytes.
var maxCommandBytes = int64(512 << 20)

// protoError is a client-visible protocol violation: the server reports it
// with an -ERR reply and closes the connection (the stream may be
// desynchronized).
type protoError string

func (e protoError) Error() string { return string(e) }

// respReader decodes RESP2 commands from a connection.
type respReader struct {
	br *bufio.Reader
}

func newRespReader(r io.Reader) *respReader {
	// The buffer bounds inline-command lines: readLine treats a line that
	// overflows it as a protocol error, so it must match maxLineLen.
	return &respReader{br: bufio.NewReaderSize(r, maxLineLen)}
}

// readLine reads one CRLF-terminated line, excluding the terminator.
func (r *respReader) readLine() ([]byte, error) {
	line, err := r.br.ReadSlice('\n')
	if err != nil {
		if err == bufio.ErrBufferFull {
			return nil, protoError("protocol line too long")
		}
		return nil, err
	}
	if len(line) < 2 || line[len(line)-2] != '\r' {
		return nil, protoError("line not CRLF-terminated")
	}
	return line[:len(line)-2], nil
}

// ReadCommand reads one client command: either a RESP array of bulk strings
// (what real clients send) or an inline command (a plain text line, for
// telnet/netcat debugging). The returned slices are freshly allocated.
// Empty commands (*0, *-1, blank inline lines) are skipped iteratively —
// never recursively, so a stream of them cannot grow the stack.
func (r *respReader) ReadCommand() ([][]byte, error) {
	for {
		first, err := r.br.Peek(1)
		if err != nil {
			return nil, err
		}
		if first[0] != '*' {
			args, err := r.readInline()
			if err != nil {
				return nil, err
			}
			if args == nil {
				continue // blank line
			}
			return args, nil
		}
		header, err := r.readLine()
		if err != nil {
			return nil, err
		}
		n, err := strconv.ParseInt(string(header[1:]), 10, 64)
		if err != nil {
			return nil, protoError("invalid multibulk length")
		}
		if n <= 0 {
			continue // Redis treats *0 and *-1 as an empty command
		}
		if n > maxArgs {
			return nil, protoError("invalid multibulk length")
		}
		// Capacity is capped: a hostile "*1048576" header is 12 bytes on the
		// wire and must not reserve megabytes up front. append grows the
		// slice only as real argument data actually arrives.
		args := make([][]byte, 0, min(n, 64))
		var total int64
		for i := int64(0); i < n; i++ {
			line, err := r.readLine()
			if err != nil {
				return nil, err
			}
			if len(line) == 0 || line[0] != '$' {
				return nil, protoError("expected bulk string")
			}
			blen, err := strconv.ParseInt(string(line[1:]), 10, 64)
			if err != nil || blen < 0 || blen > maxBulkLen {
				return nil, protoError("invalid bulk length")
			}
			if total += blen; total > maxCommandBytes {
				return nil, protoError("command too large")
			}
			buf := make([]byte, blen+2)
			if _, err := io.ReadFull(r.br, buf); err != nil {
				return nil, err
			}
			if buf[blen] != '\r' || buf[blen+1] != '\n' {
				return nil, protoError("bulk not CRLF-terminated")
			}
			args = append(args, buf[:blen])
		}
		return args, nil
	}
}

// readInline parses a whitespace-separated plain-text command line; a blank
// line returns (nil, nil) for the caller to skip.
func (r *respReader) readInline() ([][]byte, error) {
	line, err := r.readLine()
	if err != nil {
		return nil, err
	}
	fields := bytes.Fields(line)
	if len(fields) == 0 {
		return nil, nil
	}
	args := make([][]byte, len(fields))
	for i, f := range fields {
		args[i] = append([]byte(nil), f...)
	}
	return args, nil
}

// buffered reports whether more request bytes are already available without
// blocking — the pipelining signal: replies are batched until the input
// drains.
func (r *respReader) buffered() bool { return r.br.Buffered() > 0 }

// respWriter encodes RESP2 replies. errs counts error replies written — the
// stats middleware diffs it around a handler call to attribute errors to
// commands without the handler reporting them separately.
type respWriter struct {
	bw   *bufio.Writer
	errs uint64
}

func newRespWriter(w io.Writer) *respWriter {
	return &respWriter{bw: bufio.NewWriterSize(w, 16<<10)}
}

func (w *respWriter) simple(s string) { w.bw.WriteByte('+'); w.bw.WriteString(s); w.crlf() }

// maxErrorBodyLen caps how many message bytes an error reply echoes: error
// text may quote client bytes (an unknown command name can be a bulk up to
// maxBulkLen), and the reply must stay one short line.
const maxErrorBodyLen = 256

func (w *respWriter) errorf(format string, args ...any) {
	w.errs++
	w.bw.WriteString("-ERR ")
	w.errorBody(fmt.Sprintf(format, args...))
	w.crlf()
}

// errorKind writes an error reply with a non-ERR prefix (Redis uses the
// first word as a machine-readable error class, e.g. EXECABORT).
func (w *respWriter) errorKind(kind, msg string) {
	w.errs++
	w.bw.WriteByte('-')
	w.bw.WriteString(kind)
	w.bw.WriteByte(' ')
	w.errorBody(msg)
	w.crlf()
}

// errorEcho prepares client bytes for quoting inside an error message:
// truncated to the reply cap *before* the lowercase copy, so echoing a
// hostile maxBulkLen name costs a short copy, not megabytes of transient
// garbage. errorBody sanitizes and re-caps the final rendering.
func errorEcho(b []byte) string {
	if len(b) > maxErrorBodyLen {
		b = b[:maxErrorBodyLen]
	}
	return strings.ToLower(string(b))
}

// errorBody writes an error message body made wire-safe. Error text is the
// one reply channel that echoes raw client bytes (unknown command and
// subcommand names), and an error reply is a bare CRLF-terminated line — a
// CR or LF inside the message would terminate the reply early and
// desynchronize every reply after it (FuzzDispatch's well-formed-reply
// invariant). Control bytes are replaced with spaces and the body is capped
// at maxErrorBodyLen, the same containment Redis applies when echoing
// unknown-command arguments.
func (w *respWriter) errorBody(msg string) {
	truncated := false
	if len(msg) > maxErrorBodyLen {
		msg, truncated = msg[:maxErrorBodyLen], true
	}
	for i := 0; i < len(msg); i++ {
		c := msg[i]
		if c < 0x20 || c == 0x7f {
			c = ' '
		}
		w.bw.WriteByte(c)
	}
	if truncated {
		w.bw.WriteString("...")
	}
}
func (w *respWriter) integer(n int64) {
	w.bw.WriteByte(':')
	w.bw.WriteString(strconv.FormatInt(n, 10))
	w.crlf()
}
func (w *respWriter) bulk(b []byte) {
	w.bw.WriteByte('$')
	w.bw.WriteString(strconv.Itoa(len(b)))
	w.crlf()
	w.bw.Write(b)
	w.crlf()
}
func (w *respWriter) nilBulk()  { w.bw.WriteString("$-1"); w.crlf() }
func (w *respWriter) nilArray() { w.bw.WriteString("*-1"); w.crlf() }
func (w *respWriter) arrayHeader(n int) {
	w.bw.WriteByte('*')
	w.bw.WriteString(strconv.Itoa(n))
	w.crlf()
}
func (w *respWriter) crlf()        { w.bw.WriteString("\r\n") }
func (w *respWriter) flush() error { return w.bw.Flush() }

// ----------------------------------------------------------------------
// Reply decoding (client side).

// Reply is one decoded RESP value.
type Reply struct {
	Kind  byte // '+', '-', ':', '$', '*'
	Str   string
	Int   int64
	Bulk  []byte // nil bulk replies leave this nil with Nil set
	Nil   bool
	Elems []Reply
}

// Err returns the reply's error, if it is an error reply.
func (rp Reply) Err() error {
	if rp.Kind == '-' {
		return errors.New(rp.Str)
	}
	return nil
}

// Text renders the reply's payload as a string (simple string, error text,
// integer, or bulk body).
func (rp Reply) Text() string {
	switch rp.Kind {
	case '+', '-':
		return rp.Str
	case ':':
		return strconv.FormatInt(rp.Int, 10)
	case '$':
		return string(rp.Bulk)
	}
	return ""
}

// readReply decodes one RESP reply from br.
func readReply(br *bufio.Reader) (Reply, error) { return readReplyDepth(br, 0) }

func readReplyDepth(br *bufio.Reader, depth int) (Reply, error) {
	if depth > maxReplyDepth {
		return Reply{}, protoError("reply nested too deeply")
	}
	line, err := br.ReadString('\n')
	if err != nil {
		return Reply{}, err
	}
	if len(line) < 3 || line[len(line)-2] != '\r' {
		return Reply{}, protoError("malformed reply line")
	}
	body := line[1 : len(line)-2]
	switch line[0] {
	case '+':
		return Reply{Kind: '+', Str: body}, nil
	case '-':
		return Reply{Kind: '-', Str: body}, nil
	case ':':
		n, err := strconv.ParseInt(body, 10, 64)
		if err != nil {
			return Reply{}, protoError("malformed integer reply")
		}
		return Reply{Kind: ':', Int: n}, nil
	case '$':
		n, err := strconv.ParseInt(body, 10, 64)
		if err != nil || n > maxBulkLen {
			return Reply{}, protoError("malformed bulk length")
		}
		if n < 0 {
			return Reply{Kind: '$', Nil: true}, nil
		}
		buf := make([]byte, n+2)
		if _, err := io.ReadFull(br, buf); err != nil {
			return Reply{}, err
		}
		return Reply{Kind: '$', Bulk: buf[:n]}, nil
	case '*':
		n, err := strconv.ParseInt(body, 10, 64)
		if err != nil || n > maxArgs {
			return Reply{}, protoError("malformed array length")
		}
		if n < 0 {
			return Reply{Kind: '*', Nil: true}, nil
		}
		elems := make([]Reply, 0, min(n, 64))
		for i := int64(0); i < n; i++ {
			e, err := readReplyDepth(br, depth+1)
			if err != nil {
				return Reply{}, err
			}
			elems = append(elems, e)
		}
		return Reply{Kind: '*', Elems: elems}, nil
	}
	return Reply{}, protoError("unknown reply type")
}
