package server

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
	"testing/iotest"
)

// refReadCommand is the allocating command parser the arena parser
// replaced, kept verbatim as the oracle FuzzRESPParity holds cmdReader
// to: a fresh slice per argument and per integer line.
func refReadCommand(r *bufio.Reader) ([][]byte, error) {
	b, err := r.ReadByte()
	if err != nil {
		return nil, err
	}
	if b != '*' {
		if err := r.UnreadByte(); err != nil {
			return nil, err
		}
		return refReadInline(r)
	}
	n, err := refReadInt(r)
	if err != nil {
		return nil, err
	}
	if n < 0 || n > MaxArgs {
		return nil, protoErrf("array length %d out of range", n)
	}
	args := make([][]byte, 0, n)
	for i := int64(0); i < n; i++ {
		b, err := r.ReadByte()
		if err != nil {
			return nil, err
		}
		if b != '$' {
			return nil, protoErrf("expected bulk string, got %q", b)
		}
		ln, err := refReadInt(r)
		if err != nil {
			return nil, err
		}
		if ln < 0 || ln > MaxBulk {
			return nil, protoErrf("bulk length %d out of range", ln)
		}
		buf := make([]byte, ln+2)
		if _, err := io.ReadFull(r, buf); err != nil {
			return nil, err
		}
		if buf[ln] != '\r' || buf[ln+1] != '\n' {
			return nil, protoErrf("bulk string missing CRLF terminator")
		}
		args = append(args, buf[:ln])
	}
	return args, nil
}

func refReadInline(r *bufio.Reader) ([][]byte, error) {
	line, err := refReadLine(r, maxInline)
	if err != nil {
		return nil, err
	}
	var args [][]byte
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

func refReadInt(r *bufio.Reader) (int64, error) {
	line, err := refReadLine(r, 32)
	if err != nil {
		return 0, err
	}
	n, err := strconv.ParseInt(string(line), 10, 64)
	if err != nil {
		return 0, protoErrf("bad integer %q", line)
	}
	return n, nil
}

func refReadLine(r *bufio.Reader, max int) ([]byte, error) {
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

// sameFailure reports whether two parse results fail alike: both succeed,
// or both fail with a protocol error, or both with an I/O error.
func sameFailure(want, got error) bool {
	return (want == nil) == (got == nil) && errors.Is(want, errProtocol) == errors.Is(got, errProtocol)
}

// fuzzCorpus returns the inputs stored in testdata/fuzz/<name>.
func fuzzCorpus(f *testing.F, name string) [][]byte {
	paths, err := filepath.Glob(filepath.Join("testdata", "fuzz", name, "*"))
	if err != nil || len(paths) == 0 {
		f.Fatalf("no %s corpus: %v", name, err)
	}
	var out [][]byte
	for _, p := range paths {
		raw, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		// "go test fuzz v1", then one []byte("...") line.
		lines := strings.Split(string(raw), "\n")
		lit, ok := strings.CutPrefix(lines[1], "[]byte(")
		if !ok {
			f.Fatalf("%s: not a []byte corpus entry", p)
		}
		s, err := strconv.Unquote(strings.TrimSuffix(lit, ")"))
		if err != nil {
			f.Fatalf("%s: %v", p, err)
		}
		out = append(out, []byte(s))
	}
	return out
}

// FuzzRESPParity holds the arena parser to the reference. One byte stream
// goes through refReadCommand and through one cmdReader reused across
// successive commands, reset after command i when bit i%64 of resets is
// set (a batch boundary); trickle feeds the cmdReader one byte per socket
// read. Each command must parse to the same arguments, or both parsers
// must fail alike — and every argument read since the last reset must
// still hold its bytes at the next one, which is the arena's lifetime
// contract. The integer-line reader is held to its reference the same way,
// on the raw stream.
func FuzzRESPParity(f *testing.F) {
	for _, s := range respSeeds {
		f.Add([]byte(s), uint64(0), false)
	}
	for _, s := range fuzzCorpus(f, "FuzzRESPDecode") {
		f.Add(s, ^uint64(0), false)
		f.Add(s, uint64(0b0101), true)
	}
	for _, s := range []string{
		"0\r\n", "-0\n", "+7\r\n", "007\r\n", "-\r\n", "+\r\n", "1a\r\n", " 1\r\n", "1\r\r\n",
		"9223372036854775807\r\n", "9223372036854775808\r\n",
		"-9223372036854775808\r\n", "-9223372036854775809\r\n",
		strings.Repeat("0", 31) + "5\r\n", strings.Repeat("0", 33) + "\r\n",
		strings.Repeat("0", 32) + "\r\r\n", strings.Repeat("0", 40),
		"*2\r\n$3\r\nGET\r\n$5000\r\n" + strings.Repeat("x", 5000) + "\r\n*1\r\n$4\r\nPING\r\n",
	} {
		f.Add([]byte(s), uint64(1), false)
		f.Add([]byte(s), uint64(0), true)
	}
	f.Fuzz(func(t *testing.T, data []byte, resets uint64, trickle bool) {
		feed := func() io.Reader {
			if trickle {
				return iotest.OneByteReader(bytes.NewReader(data))
			}
			return bytes.NewReader(data)
		}

		wantN, wantErr := refReadInt(bufio.NewReader(bytes.NewReader(data)))
		n, err := readInt(bufio.NewReader(feed()))
		if !sameFailure(wantErr, err) || (err == nil && n != wantN) {
			t.Fatalf("readInt = %d, %v; reference %d, %v", n, err, wantN, wantErr)
		}

		ref := bufio.NewReader(bytes.NewReader(data))
		cr := cmdReader{br: bufio.NewReader(feed())}
		var kept, want [][][]byte // arguments since the last reset
		checkKept := func() {
			for i := range kept {
				if !argsEqual(kept[i], want[i]) {
					t.Fatalf("command %d of the batch changed before reset: %q, read as %q", i, kept[i], want[i])
				}
			}
			kept, want = kept[:0], want[:0]
		}
		for i := 0; ; i++ {
			wantArgs, wantErr := refReadCommand(ref)
			args, err := cr.read()
			if !sameFailure(wantErr, err) {
				t.Fatalf("command %d: error %v, reference %v", i, err, wantErr)
			}
			if err != nil {
				checkKept()
				return
			}
			if !argsEqual(args, wantArgs) {
				t.Fatalf("command %d: %q, reference %q", i, args, wantArgs)
			}
			kept, want = append(kept, slices.Clone(args)), append(want, wantArgs)
			if resets>>(i%64)&1 != 0 {
				checkKept()
				cr.reset()
			}
		}
	})
}

func argsEqual(a, b [][]byte) bool {
	return slices.EqualFunc(a, b, bytes.Equal)
}
