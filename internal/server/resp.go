// Package server is the networked front-end over the kvstore builds: a
// RESP2 (Redis serialization protocol, v2) listener that maps many
// client connections onto a small bounded pool of store sessions.
//
// The design target is the paper's headline workload shape at the wire:
// read-dominated traffic from many connections, pipelined bursts, and
// the occasional long snapshot scan from a slow client — exactly the
// long-lived reader that pins old versions and makes multi-version GC
// interesting. Connections are cheap (a goroutine and two buffers);
// engine thread handles are not free to register per connection, so a
// connection checks a session out of the pool only for the duration of
// one pipelined command batch and returns it before blocking on the
// socket again (see pool.go for why that is safe under the Session
// contract).
package server

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"strconv"
)

// Protocol limits. A decoder that trusts length prefixes is a memory
// bomb; these caps bound what one command may make the server allocate.
const (
	// MaxArgs is the maximum number of arguments in one command array.
	MaxArgs = 1 << 16
	// MaxBulk is the maximum size of one bulk-string argument.
	MaxBulk = 8 << 20
	// maxInline bounds an inline (non-array) command line.
	maxInline = 1 << 16
	// maxIntLine bounds the digits of a `*N` / `$N` / `:N` line.
	maxIntLine = 32
	// maxArena is the most argument memory a connection keeps between
	// batches; a batch that needed more leaves its arena to the GC.
	maxArena = 64 << 10
	// maxKeptArgs is the longest argument header a connection keeps
	// between batches (24 KiB of slice headers).
	maxKeptArgs = 1 << 10
)

// errProtocol wraps malformed-input errors; the connection replies with
// an -ERR and closes, since framing is unrecoverable after a bad prefix.
var errProtocol = errors.New("protocol error")

func protoErrf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", errProtocol, fmt.Sprintf(format, args...))
}

// ReadCommand reads one client command: a RESP2 array of bulk strings
// (`*N\r\n` then N × `$len\r\n<bytes>\r\n`), or — when the first byte is
// not '*' — an inline command (a plain line of space-separated words,
// the telnet-debugging form real Redis also accepts). It returns the
// argument list; args[0] is the command name. An empty inline line
// returns a zero-length slice (the caller skips it). The arguments are
// the caller's to keep. r's buffer must hold at least 34 bytes, the
// longest integer line, as bufio's default size does.
func ReadCommand(r *bufio.Reader) ([][]byte, error) {
	cr := cmdReader{br: r}
	return cr.read()
}

// cmdReader is a connection's command parser. It reads integer lines in
// place from br's buffer and copies every bulk argument into one arena
// that the whole batch shares, and it reuses one argument header across
// commands. So what read returns is valid only until the next read (the
// header) and until reset (the bytes): the batch pipeline plans each
// command before reading the next and resets after the batch renders,
// and anything that must outlive the batch — a MULTI body, a stored key
// or value — is copied out at plan time.
type cmdReader struct {
	br    *bufio.Reader
	args  [][]byte
	arena []byte
}

// read parses one command, as ReadCommand.
func (cr *cmdReader) read() ([][]byte, error) {
	r := cr.br
	b, err := r.ReadByte()
	if err != nil {
		return nil, err
	}
	if b != '*' {
		if err := r.UnreadByte(); err != nil {
			return nil, err
		}
		cr.args, err = readInline(r, cr.args[:0])
		return cr.args, err
	}
	n, err := readInt(r)
	if err != nil {
		return nil, err
	}
	if n < 0 || n > MaxArgs {
		return nil, protoErrf("array length %d out of range", n)
	}
	if int64(cap(cr.args)) < n {
		cr.args = make([][]byte, 0, n)
	}
	args := cr.args[:0]
	for i := int64(0); i < n; i++ {
		b, err := r.ReadByte()
		if err != nil {
			return nil, err
		}
		if b != '$' {
			return nil, protoErrf("expected bulk string, got %q", b)
		}
		ln, err := readInt(r)
		if err != nil {
			return nil, err
		}
		if ln < 0 || ln > MaxBulk {
			return nil, protoErrf("bulk length %d out of range", ln)
		}
		arg, err := cr.bulk(int(ln))
		if err != nil {
			return nil, err
		}
		args = append(args, arg)
	}
	return args, nil
}

// bulk reads one ln-byte bulk string and its CRLF into the free tail of
// the arena. Earlier arguments sit below that tail and are never
// overwritten; when the tail is too short a new arena replaces the old
// one, which the earlier arguments keep alive, so nothing is copied.
func (cr *cmdReader) bulk(ln int) ([]byte, error) {
	need := ln + 2
	if cap(cr.arena)-len(cr.arena) < need {
		cr.arena = make([]byte, 0, max(2*cap(cr.arena), need))
	}
	start := len(cr.arena)
	buf := cr.arena[start : start+need]
	if _, err := io.ReadFull(cr.br, buf); err != nil {
		return nil, err
	}
	if buf[ln] != '\r' || buf[ln+1] != '\n' {
		return nil, protoErrf("bulk string missing CRLF terminator")
	}
	cr.arena = cr.arena[:start+ln]
	return buf[:ln:ln], nil
}

// reset ends a batch: every argument read since the last reset is dead.
// The arena and header are kept for the next batch unless this one grew
// them past maxArena bytes or maxKeptArgs entries.
func (cr *cmdReader) reset() {
	if cap(cr.arena) > maxArena {
		cr.arena = nil
	}
	cr.arena = cr.arena[:0]
	if cap(cr.args) > maxKeptArgs {
		cr.args = nil
	}
}

// readInline parses a whitespace-separated command line, appending the
// words to args. The words are slices of a line allocated for them.
func readInline(r *bufio.Reader, args [][]byte) ([][]byte, error) {
	line, err := readLine(r, maxInline)
	if err != nil {
		return nil, err
	}
	start := -1
	for i := 0; i <= len(line); i++ {
		if i < len(line) && !inlineSep(line[i]) {
			if start < 0 {
				start = i
			}
			continue
		}
		if start >= 0 {
			args = append(args, line[start:i])
			start = -1
		}
	}
	return args, nil
}

// inlineSep reports an inline-command word separator. Redis splits
// inline commands on any isspace() byte, not just ' '; in particular a
// bare CR (one not part of the terminating CRLF) separates words rather
// than being smuggled into an argument.
func inlineSep(b byte) bool {
	switch b {
	case ' ', '\t', '\r', '\v', '\f':
		return true
	}
	return false
}

// readInt parses the decimal integer after a type prefix, up to CRLF (or
// a bare LF), with readLine's cap of maxIntLine content bytes. The line is
// parsed where it sits in r's buffer and then discarded, so nothing is
// allocated. It looks for the LF only within the cap's window and reads
// one more byte from the socket only while the window is still open, so
// an over-long line fails as soon as the cap is passed rather than once
// its LF arrives.
func readInt(r *bufio.Reader) (int64, error) {
	const window = maxIntLine + 2 // content, CR, LF
	for {
		buf, _ := r.Peek(min(r.Buffered(), window))
		if i := bytes.IndexByte(buf, '\n'); i >= 0 {
			line := buf[:i]
			if i > 0 && line[i-1] == '\r' {
				line = line[:i-1]
			}
			if len(line) > maxIntLine {
				return 0, protoErrf("line exceeds %d bytes", maxIntLine)
			}
			n, ok := parseInt(line)
			if !ok {
				return 0, protoErrf("bad integer %q", line)
			}
			r.Discard(i + 1)
			return n, nil
		}
		if len(buf) > maxIntLine+1 || (len(buf) == maxIntLine+1 && buf[maxIntLine] != '\r') {
			return 0, protoErrf("line exceeds %d bytes", maxIntLine)
		}
		if _, err := r.Peek(len(buf) + 1); err != nil {
			return 0, err
		}
	}
}

// parseInt is strconv.ParseInt(string(b), 10, 64) without the string: an
// optional sign, then one or more decimal digits, within int64.
func parseInt(b []byte) (int64, bool) {
	neg := false
	if len(b) > 0 && (b[0] == '-' || b[0] == '+') {
		neg = b[0] == '-'
		b = b[1:]
	}
	if len(b) == 0 {
		return 0, false
	}
	const limit = 1 << 63 // the magnitude of math.MinInt64
	var n uint64
	for _, c := range b {
		d := uint64(c - '0')
		if d > 9 || n > (limit-d)/10 {
			return 0, false
		}
		n = n*10 + d
	}
	if neg {
		return -int64(n), true
	}
	if n == limit {
		return 0, false
	}
	return int64(n), true
}

// readLine reads up to CRLF (bare LF tolerated for inline commands),
// bounded by max CONTENT bytes: the cap is on the line after the
// terminator is stripped, so the max+1'th raw byte is allowed only when
// it is the CR of the trailing CRLF. (Capping the raw bytes instead
// rejected max-length CRLF-terminated lines while accepting the same
// content LF-terminated.)
func readLine(r *bufio.Reader, max int) ([]byte, error) {
	var line []byte
	for {
		b, err := r.ReadByte()
		if err != nil {
			return nil, err
		}
		if b == '\n' {
			if n := len(line); n > 0 && line[n-1] == '\r' {
				line = line[:n-1]
			}
			if len(line) > max {
				return nil, protoErrf("line exceeds %d bytes", max)
			}
			return line, nil
		}
		line = append(line, b)
		if len(line) > max+1 || (len(line) == max+1 && b != '\r') {
			return nil, protoErrf("line exceeds %d bytes", max)
		}
	}
}

// WriteCommand encodes a command as a RESP2 array of bulk strings — the
// client side of ReadCommand, used by the load generator and tests.
func WriteCommand(w *bufio.Writer, args ...[]byte) error {
	if err := writeArrayHeader(w, len(args)); err != nil {
		return err
	}
	for _, a := range args {
		if err := writeBulk(w, a); err != nil {
			return err
		}
	}
	return nil
}

// WriteCommandStrings is WriteCommand over string arguments.
func WriteCommandStrings(w *bufio.Writer, args ...string) error {
	if err := writeArrayHeader(w, len(args)); err != nil {
		return err
	}
	for _, a := range args {
		if err := writeBulkString(w, a); err != nil {
			return err
		}
	}
	return nil
}

// Reply writers (server side). Each returns the first write error;
// callers treat any error as a dead connection.

func writeSimple(w *bufio.Writer, s string) error {
	w.WriteByte('+')
	w.WriteString(s)
	_, err := w.WriteString("\r\n")
	return err
}

func writeErrorReply(w *bufio.Writer, msg string) error {
	w.WriteByte('-')
	w.WriteString(msg)
	_, err := w.WriteString("\r\n")
	return err
}

func writeInt(w *bufio.Writer, n int64) error {
	w.WriteByte(':')
	w.WriteString(strconv.FormatInt(n, 10))
	_, err := w.WriteString("\r\n")
	return err
}

func writeBulk(w *bufio.Writer, b []byte) error {
	w.WriteByte('$')
	w.WriteString(strconv.Itoa(len(b)))
	w.WriteString("\r\n")
	w.Write(b)
	_, err := w.WriteString("\r\n")
	return err
}

func writeBulkString(w *bufio.Writer, s string) error {
	w.WriteByte('$')
	w.WriteString(strconv.Itoa(len(s)))
	w.WriteString("\r\n")
	w.WriteString(s)
	_, err := w.WriteString("\r\n")
	return err
}

func writeNull(w *bufio.Writer) error {
	_, err := w.WriteString("$-1\r\n")
	return err
}

func writeArrayHeader(w *bufio.Writer, n int) error {
	w.WriteByte('*')
	w.WriteString(strconv.Itoa(n))
	_, err := w.WriteString("\r\n")
	return err
}
