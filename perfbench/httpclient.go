package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
)

// httpConn is a minimal HTTP/1.1 keep-alive client. It writes pre-built
// requests and reads each response into one reused buffer, so the heap
// allocations the load adds are the server's, not a client library's.
type httpConn struct {
	c   net.Conn
	rd  *bufio.Reader
	buf []byte
}

var (
	headerLength   = []byte("Content-Length")
	headerEncoding = []byte("Transfer-Encoding")
	chunked        = []byte("chunked")
)

// roundTrip sends req and returns the response status and body. The body
// is valid until the next call.
func (h *httpConn) roundTrip(req []byte) (int, []byte, error) {
	if _, err := h.c.Write(req); err != nil {
		return 0, nil, err
	}
	line, err := h.rd.ReadSlice('\n')
	if err != nil {
		return 0, nil, err
	}
	if len(line) < 12 || !bytes.HasPrefix(line, []byte("HTTP/1.1 ")) {
		return 0, nil, fmt.Errorf("http: bad status line %q", line)
	}
	status, _ := parseUint(line[9:12], 10)
	length, isChunked := -1, false
	for {
		if line, err = h.rd.ReadSlice('\n'); err != nil {
			return 0, nil, err
		}
		if len(bytes.TrimSpace(line)) == 0 {
			break
		}
		key, val, _ := bytes.Cut(line, []byte(":"))
		val = bytes.TrimSpace(val)
		switch {
		case bytes.EqualFold(key, headerLength):
			n, _ := parseUint(val, 10)
			length = int(n)
		case bytes.EqualFold(key, headerEncoding):
			isChunked = bytes.EqualFold(val, chunked)
		}
	}
	h.buf = h.buf[:0]
	switch {
	case isChunked:
		for {
			if line, err = h.rd.ReadSlice('\n'); err != nil {
				return 0, nil, err
			}
			n, _ := parseUint(bytes.TrimSpace(line), 16)
			if n == 0 {
				_, err = h.rd.Discard(2) // the empty trailer's CRLF
				return int(status), h.buf, err
			}
			if err := h.read(int(n)); err != nil {
				return 0, nil, err
			}
			if _, err := h.rd.Discard(2); err != nil {
				return 0, nil, err
			}
		}
	case length >= 0:
		return int(status), h.buf, h.read(length)
	}
	return 0, nil, fmt.Errorf("http: response has neither a length nor chunks")
}

// read appends the next n body bytes to h.buf.
func (h *httpConn) read(n int) error {
	off := len(h.buf)
	if cap(h.buf) < off+n {
		h.buf = append(h.buf, make([]byte, n)...)
	}
	h.buf = h.buf[:off+n]
	_, err := io.ReadFull(h.rd, h.buf[off:])
	return err
}

// parseUint reads leading digits of b in the given base and returns the
// value and how many bytes it used.
func parseUint(b []byte, base uint64) (uint64, int) {
	v, i := uint64(0), 0
	for ; i < len(b); i++ {
		c := b[i]
		var d uint64
		switch {
		case c >= '0' && c <= '9':
			d = uint64(c - '0')
		case base == 16 && c >= 'a' && c <= 'f':
			d = uint64(c-'a') + 10
		case base == 16 && c >= 'A' && c <= 'F':
			d = uint64(c-'A') + 10
		default:
			return v, i
		}
		v = v*base + d
	}
	return v, i
}
