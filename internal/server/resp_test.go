package server

import (
	"bufio"
	"bytes"
	"strings"
	"testing"
)

func decodeAll(t *testing.T, raw string) [][][]byte {
	t.Helper()
	r := bufio.NewReader(strings.NewReader(raw))
	var out [][][]byte
	for {
		args, err := ReadCommand(r)
		if err != nil {
			return out
		}
		out = append(out, args)
	}
}

func TestReadCommandArray(t *testing.T) {
	cmds := decodeAll(t, "*3\r\n$3\r\nSET\r\n$1\r\nk\r\n$5\r\nhello\r\n")
	if len(cmds) != 1 {
		t.Fatalf("decoded %d commands", len(cmds))
	}
	want := []string{"SET", "k", "hello"}
	for i, w := range want {
		if string(cmds[0][i]) != w {
			t.Fatalf("arg %d = %q, want %q", i, cmds[0][i], w)
		}
	}
}

func TestReadCommandInline(t *testing.T) {
	cmds := decodeAll(t, "SET  foo   bar\r\nGET foo\n")
	if len(cmds) != 2 {
		t.Fatalf("decoded %d commands", len(cmds))
	}
	if string(cmds[0][0]) != "SET" || string(cmds[0][1]) != "foo" || string(cmds[0][2]) != "bar" {
		t.Fatalf("inline parse: %q", cmds[0])
	}
	if len(cmds[1]) != 2 || string(cmds[1][0]) != "GET" {
		t.Fatalf("inline parse 2: %q", cmds[1])
	}
}

func TestReadCommandRejectsOversize(t *testing.T) {
	for _, raw := range []string{
		"*99999999\r\n",       // array too long
		"*1\r\n$99999999\r\n", // bulk too long
		"*1\r\n$-5\r\n",       // negative bulk
		"*1\r\n:5\r\n",        // non-bulk element
		"*1\r\n$3\r\nabcXX",   // missing CRLF
		"*x\r\n",              // bad integer
	} {
		r := bufio.NewReader(strings.NewReader(raw))
		if _, err := ReadCommand(r); err == nil {
			t.Fatalf("accepted %q", raw)
		}
	}
}

func TestWriteCommandRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := bufio.NewWriter(&buf)
	if err := WriteCommand(w, []byte("MSET"), []byte("a"), []byte(""), []byte("b\r\nc")); err != nil {
		t.Fatal(err)
	}
	w.Flush()
	args, err := ReadCommand(bufio.NewReader(&buf))
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"MSET", "a", "", "b\r\nc"}
	if len(args) != len(want) {
		t.Fatalf("got %d args, want %d", len(args), len(want))
	}
	for i, w := range want {
		if string(args[i]) != w {
			t.Fatalf("arg %d = %q, want %q", i, args[i], w)
		}
	}
}

func TestReplyRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := bufio.NewWriter(&buf)
	writeSimple(w, "OK")
	writeErrorReply(w, "ERR boom")
	writeInt(w, -42)
	writeBulkString(w, "payload\r\nwith crlf")
	writeNull(w)
	writeArrayHeader(w, 2)
	writeBulkString(w, "k")
	writeBulkString(w, "v")
	w.Flush()

	r := bufio.NewReader(&buf)
	checks := []func(Reply){
		func(p Reply) {
			if p.Kind != SimpleReply || p.Str != "OK" {
				t.Fatalf("simple: %v", p)
			}
		},
		func(p Reply) {
			if !p.IsError() || p.Str != "ERR boom" {
				t.Fatalf("error: %v", p)
			}
		},
		func(p Reply) {
			if p.Kind != IntReply || p.Int != -42 {
				t.Fatalf("int: %v", p)
			}
		},
		func(p Reply) {
			if p.Kind != BulkReply || p.Str != "payload\r\nwith crlf" {
				t.Fatalf("bulk: %v", p)
			}
		},
		func(p Reply) {
			if p.Kind != NullReply {
				t.Fatalf("null: %v", p)
			}
		},
		func(p Reply) {
			if p.Kind != ArrayReply || len(p.Elems) != 2 || p.Elems[1].Str != "v" {
				t.Fatalf("array: %v", p)
			}
		},
	}
	for _, check := range checks {
		p, err := ReadReply(r)
		if err != nil {
			t.Fatal(err)
		}
		check(p)
	}
}

// TestNullBulkAsymmetry pins the intended $-1 asymmetry: a null bulk is
// a legal *reply* (ReadReply yields NullReply, the GET-miss answer) but
// has no meaning inside a *command* array — an argument is a byte
// string, possibly empty, never null — so ReadCommand must reject it
// rather than invent an empty arg.
func TestNullBulkAsymmetry(t *testing.T) {
	r := bufio.NewReader(strings.NewReader("*1\r\n$-1\r\n"))
	if _, err := ReadCommand(r); err == nil {
		t.Fatal("ReadCommand accepted a null bulk argument")
	}
	p, err := ReadReply(bufio.NewReader(strings.NewReader("$-1\r\n")))
	if err != nil || p.Kind != NullReply {
		t.Fatalf("null bulk reply: %v, %v", p, err)
	}
	p, err = ReadReply(bufio.NewReader(strings.NewReader("*-1\r\n")))
	if err != nil || p.Kind != NullReply {
		t.Fatalf("null array reply: %v, %v", p, err)
	}
}

// TestInlineWhitespace: inline commands split on any whitespace byte —
// in particular a bare CR is a separator, not argument content.
func TestInlineWhitespace(t *testing.T) {
	r := bufio.NewReader(strings.NewReader("SET\tfoo\rbar\v\fbaz\n"))
	args, err := ReadCommand(r)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"SET", "foo", "bar", "baz"}
	if len(args) != len(want) {
		t.Fatalf("args = %q, want %q", args, want)
	}
	for i, w := range want {
		if string(args[i]) != w {
			t.Fatalf("arg %d = %q, want %q", i, args[i], w)
		}
	}
	// All-whitespace line: zero args, not an error.
	args, err = ReadCommand(bufio.NewReader(strings.NewReader(" \t \r\n")))
	if err != nil || len(args) != 0 {
		t.Fatalf("blank line: %q, %v", args, err)
	}
}

// TestReadLineCapBoundary: the inline cap counts content bytes, so a
// maxInline-byte line is accepted with either terminator and one more
// byte is rejected with either terminator.
func TestReadLineCapBoundary(t *testing.T) {
	atCap := strings.Repeat("a", maxInline)
	for _, raw := range []string{atCap + "\r\n", atCap + "\n"} {
		args, err := ReadCommand(bufio.NewReader(strings.NewReader(raw)))
		if err != nil {
			t.Fatalf("rejected %d-byte line (terminator %q): %v", maxInline, raw[len(raw)-2:], err)
		}
		if len(args) != 1 || len(args[0]) != maxInline {
			t.Fatalf("parsed %d args, arg0 len %d", len(args), len(args[0]))
		}
	}
	over := strings.Repeat("a", maxInline+1)
	for _, raw := range []string{over + "\r\n", over + "\n", over} {
		if _, err := ReadCommand(bufio.NewReader(strings.NewReader(raw))); err == nil {
			t.Fatalf("accepted %d-byte line", maxInline+1)
		}
	}
}

// respSeeds seed both codec fuzzers, in FuzzRESPDecode's seed#N order.
var respSeeds = []string{
	"*3\r\n$3\r\nSET\r\n$1\r\nk\r\n$1\r\nv\r\n",
	"*1\r\n$4\r\nPING\r\n",
	"GET foo\r\n",
	"*0\r\n",
	"*2\r\n$0\r\n\r\n$5\r\nab\r\nc\r\n",
	"*1\r\n$-1\r\n",
	"GET\tfoo\rbar\v\fbaz\n",
	"*-1\r\n",
	"$-1\r\n",
	strings.Repeat("a", maxInline) + "\r\n",
	"*2\r\n$8\r\nTRACELOG\r\n$2\r\n10\r\n",
	"*2\r\n$8\r\nTRACELOG\r\n$5\r\nRESET\r\n",
	"*3\r\n$8\r\nTRACELOG\r\n$2\r\nGC\r\n$3\r\n100\r\n",
	"TRACELOG RECENT 5\r\n",
}

// FuzzRESPDecode round-trips the codec: any byte stream the decoder
// accepts must re-encode (as a canonical array of bulk strings) to a
// form the decoder parses back to the identical argument list.
func FuzzRESPDecode(f *testing.F) {
	for _, s := range respSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		args, err := ReadCommand(bufio.NewReader(bytes.NewReader(data)))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		w := bufio.NewWriter(&buf)
		if err := WriteCommand(w, args...); err != nil {
			t.Fatalf("encode of decoded command failed: %v", err)
		}
		w.Flush()
		again, err := ReadCommand(bufio.NewReader(&buf))
		if err != nil {
			t.Fatalf("re-decode failed: %v (encoded %q)", err, buf.Bytes())
		}
		if len(again) != len(args) {
			t.Fatalf("round trip length %d != %d", len(again), len(args))
		}
		for i := range args {
			if !bytes.Equal(again[i], args[i]) {
				t.Fatalf("round trip arg %d: %q != %q", i, again[i], args[i])
			}
		}
	})
}
