package faultinject

import (
	"bytes"
	"errors"
	"io"
	"net"
	"os"
	"sync"
	"testing"
	"time"
)

// chunkRecorder records the sizes of the writes that reach the inner
// conn, to verify partial-write injection.
type chunkRecorder struct {
	net.Conn
	mu     sync.Mutex
	chunks []int
}

func (c *chunkRecorder) Write(b []byte) (int, error) {
	c.mu.Lock()
	c.chunks = append(c.chunks, len(b))
	c.mu.Unlock()
	return c.Conn.Write(b)
}

// TestConnPassthrough: the zero Rules inject nothing — bytes flow both
// ways unchanged.
func TestConnPassthrough(t *testing.T) {
	a, b := net.Pipe()
	fc := NewConn(a, Rules{})
	defer fc.Close()
	defer b.Close()

	go io.Copy(b, b) // echo
	msg := []byte("hello fault injection")
	if _, err := fc.Write(msg); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(msg))
	if _, err := io.ReadFull(fc, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatalf("echo mismatch: %q", got)
	}
}

// TestPartialWrites: MaxWriteChunk splits a large write into bounded
// chunks without losing or reordering bytes.
func TestPartialWrites(t *testing.T) {
	a, b := net.Pipe()
	rec := &chunkRecorder{Conn: a}
	fc := newConn(rec, Rules{MaxWriteChunk: 3})
	defer fc.Close()
	defer b.Close()

	msg := []byte("0123456789")
	var got []byte
	done := make(chan struct{})
	go func() {
		defer close(done)
		buf := make([]byte, 64)
		for len(got) < len(msg) {
			n, err := b.Read(buf)
			got = append(got, buf[:n]...)
			if err != nil {
				return
			}
		}
	}()
	n, err := fc.Write(msg)
	if err != nil || n != len(msg) {
		t.Fatalf("write: %d, %v", n, err)
	}
	<-done
	if !bytes.Equal(got, msg) {
		t.Fatalf("received %q, want %q", got, msg)
	}
	rec.mu.Lock()
	defer rec.mu.Unlock()
	if len(rec.chunks) < 4 {
		t.Fatalf("expected >= 4 chunks, saw %v", rec.chunks)
	}
	for _, c := range rec.chunks {
		if c > 3 {
			t.Fatalf("chunk of %d bytes escaped the 3-byte limit: %v", c, rec.chunks)
		}
	}
}

// TestStallReadDeadline: a stalled Read blocks until the read deadline
// passes, then fails with os.ErrDeadlineExceeded — the shape the
// server's unstick path and the router's stall detector rely on.
func TestStallReadDeadline(t *testing.T) {
	a, b := net.Pipe()
	fc := newConn(a, Rules{StallReadAfter: 4})
	defer fc.Close()
	defer b.Close()

	go b.Write([]byte("0123456789"))
	buf := make([]byte, 16)
	n, err := fc.Read(buf)
	if err != nil || n != 4 {
		t.Fatalf("read before stall boundary: %d, %v", n, err)
	}
	fc.SetReadDeadline(time.Now().Add(50 * time.Millisecond))
	t0 := time.Now()
	_, err = fc.Read(buf)
	if !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("stalled read returned %v, want deadline exceeded", err)
	}
	if d := time.Since(t0); d < 30*time.Millisecond || d > 2*time.Second {
		t.Fatalf("stall released after %v, want ~50ms", d)
	}
}

// TestStallUnblockedByClose: closing the conn releases a stalled
// operation with net.ErrClosed (no deadline needed).
func TestStallUnblockedByClose(t *testing.T) {
	a, b := net.Pipe()
	fc := newConn(a, Rules{StallWriteAfter: 2})
	defer b.Close()
	go io.Copy(io.Discard, b) // net.Pipe is unbuffered: drain so only the injected stall blocks

	if _, err := fc.Write([]byte("ab")); err != nil {
		t.Fatal(err)
	}
	go func() {
		time.Sleep(20 * time.Millisecond)
		fc.Close()
	}()
	_, err := fc.Write([]byte("cd"))
	if !errors.Is(err, net.ErrClosed) {
		t.Fatalf("stalled write returned %v, want net.ErrClosed", err)
	}
}

// TestDeadlineMoveUnsticksStall: moving the deadline into the past while
// an operation is stalled releases it immediately — the exact mechanism
// internal/server uses to unstick silent clients.
func TestDeadlineMoveUnsticksStall(t *testing.T) {
	a, b := net.Pipe()
	fc := newConn(a, Rules{StallReadAfter: 1})
	defer fc.Close()
	defer b.Close()

	go b.Write([]byte("xy"))
	buf := make([]byte, 4)
	if _, err := fc.Read(buf); err != nil {
		t.Fatal(err)
	}
	go func() {
		time.Sleep(20 * time.Millisecond)
		fc.SetReadDeadline(time.Now())
	}()
	t0 := time.Now()
	_, err := fc.Read(buf)
	if !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("got %v, want deadline exceeded", err)
	}
	if d := time.Since(t0); d > 2*time.Second {
		t.Fatalf("unstick took %v", d)
	}
}

// TestAbortWriteAfter: the conn RSTs once the write budget is spent; the
// peer's read ends with an error mid-stream, never with corrupt bytes.
func TestAbortWriteAfter(t *testing.T) {
	a, b := net.Pipe()
	fc := newConn(a, Rules{AbortWriteAfter: 5})
	defer b.Close()

	var got []byte
	done := make(chan struct{})
	go func() {
		defer close(done)
		buf := make([]byte, 64)
		for {
			n, err := b.Read(buf)
			got = append(got, buf[:n]...)
			if err != nil {
				return
			}
		}
	}()
	msg := []byte("0123456789")
	n, err := fc.Write(msg)
	if !errors.Is(err, net.ErrClosed) {
		t.Fatalf("write past abort budget: n=%d err=%v, want net.ErrClosed", n, err)
	}
	if n != 5 {
		t.Fatalf("wrote %d bytes before the abort, want 5", n)
	}
	<-done
	if !bytes.Equal(got, msg[:5]) {
		t.Fatalf("peer saw %q, want the 5-byte prefix", got)
	}
}

// TestListenerKillAndRecover drives the runtime controls over real TCP:
// a live echo connection is RST-killed by AbortAll, new connections are
// refused while SetRefuse is on, and service resumes after recovery.
func TestListenerKillAndRecover(t *testing.T) {
	inner, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	l := Wrap(inner, nil)
	defer l.Close()
	go func() { // echo server
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			go func() {
				io.Copy(c, c)
				c.Close()
			}()
		}
	}()

	dial := func() net.Conn {
		t.Helper()
		c, err := net.Dial("tcp", l.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	roundtrip := func(c net.Conn) error {
		c.SetDeadline(time.Now().Add(2 * time.Second))
		if _, err := c.Write([]byte("ping")); err != nil {
			return err
		}
		buf := make([]byte, 4)
		_, err := io.ReadFull(c, buf)
		return err
	}

	c1 := dial()
	defer c1.Close()
	if err := roundtrip(c1); err != nil {
		t.Fatalf("healthy roundtrip: %v", err)
	}

	// Kill: the live conn dies mid-stream, new conns die on first use.
	l.SetRefuse(true)
	l.AbortAll()
	if err := roundtrip(c1); err == nil {
		t.Fatal("roundtrip survived AbortAll")
	}
	// A refused connection is RST-closed on accept. The reset may reach
	// the client before connect returns (the dial fails) or after it (the
	// first roundtrip fails); either shape is the refusal, and only a
	// successful roundtrip is a failure.
	if c2, err := net.Dial("tcp", l.Addr().String()); err == nil {
		defer c2.Close()
		if err := roundtrip(c2); err == nil {
			t.Fatal("roundtrip survived SetRefuse")
		}
	}

	// Recover.
	l.SetRefuse(false)
	c3 := dial()
	defer c3.Close()
	if err := roundtrip(c3); err != nil {
		t.Fatalf("roundtrip after recovery: %v", err)
	}
	if n := l.NumConns(); n != 1 {
		t.Fatalf("live conns after recovery = %d, want 1", n)
	}
}

// TestScriptPerConn: rules are selected by accept order, so a scripted
// schedule is reproducible run to run.
func TestScriptPerConn(t *testing.T) {
	inner, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	l := Wrap(inner, &Script{
		Refuse:  map[int]bool{1: true},
		PerConn: map[int]Rules{2: {AbortWriteAfter: 2}},
	})
	defer l.Close()
	go func() {
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			go func() {
				io.Copy(c, c)
				c.Close()
			}()
		}
	}()

	try := func() error {
		c, err := net.Dial("tcp", l.Addr().String())
		if err != nil {
			return err
		}
		defer c.Close()
		c.SetDeadline(time.Now().Add(2 * time.Second))
		if _, err := c.Write([]byte("ping")); err != nil {
			return err
		}
		buf := make([]byte, 4)
		_, err = io.ReadFull(c, buf)
		return err
	}
	if err := try(); err != nil { // conn 0: clean
		t.Fatalf("conn 0: %v", err)
	}
	if err := try(); err == nil { // conn 1: refused by script
		t.Fatal("conn 1 succeeded, script says refuse")
	}
	if err := try(); err == nil { // conn 2: echo write aborts after 2 bytes
		t.Fatal("conn 2 echoed 4 bytes through an AbortWriteAfter:2 rule")
	}
	if err := try(); err != nil { // conn 3: default (clean) again
		t.Fatalf("conn 3: %v", err)
	}
}

// FuzzConn: arbitrary rule combinations against an echo peer must never
// panic, never corrupt or reorder bytes (the client receives a prefix of
// what it sent), and always terminate under deadlines — stalls included.
func FuzzConn(f *testing.F) {
	f.Add(uint8(0), uint8(0), uint8(0), uint8(0), uint8(0), []byte("hello"))
	f.Add(uint8(2), uint8(2), uint8(3), uint8(0), uint8(0), []byte("partial writes and latency"))
	f.Add(uint8(0), uint8(0), uint8(0), uint8(7), uint8(0), []byte("stall mid-stream"))
	f.Add(uint8(0), uint8(0), uint8(1), uint8(0), uint8(9), []byte("abort mid-line with tiny chunks"))
	f.Add(uint8(1), uint8(0), uint8(2), uint8(5), uint8(3), []byte("everything at once"))
	f.Fuzz(func(t *testing.T, rlat, wlat, chunk, stallW, abortW uint8, payload []byte) {
		if len(payload) == 0 {
			payload = []byte{0}
		}
		if len(payload) > 1<<12 {
			payload = payload[:1<<12]
		}
		rules := Rules{
			ReadLatency:  time.Duration(rlat%4) * time.Millisecond,
			WriteLatency: time.Duration(wlat%4) * time.Millisecond,
		}
		if chunk > 0 {
			rules.MaxWriteChunk = int(chunk)
		}
		if stallW > 0 {
			rules.StallWriteAfter = int64(stallW)
		}
		if abortW > 0 {
			rules.AbortWriteAfter = int64(abortW)
		}

		a, b := net.Pipe()
		fc := newConn(a, rules)
		defer fc.Close()
		defer b.Close()
		go func() { // echo peer
			buf := make([]byte, 256)
			for {
				n, err := b.Read(buf)
				if n > 0 {
					if _, werr := b.Write(buf[:n]); werr != nil {
						return
					}
				}
				if err != nil {
					return
				}
			}
		}()

		// Everything is deadline-bounded, so even a pure stall ends.
		deadline := time.Now().Add(250 * time.Millisecond)
		fc.SetDeadline(deadline)

		sent := 0
		var echoed []byte
		done := make(chan struct{})
		go func() {
			defer close(done)
			buf := make([]byte, 256)
			for {
				n, err := fc.Read(buf)
				echoed = append(echoed, buf[:n]...)
				if err != nil {
					return
				}
			}
		}()
		n, _ := fc.Write(payload) // errors (deadline, abort) are legitimate outcomes
		sent = n
		if sent > len(payload) {
			t.Fatalf("wrote %d bytes of a %d-byte payload", sent, len(payload))
		}
		<-done

		// The echo must be a prefix of what was actually sent: no
		// corruption, duplication or reordering under any fault mix.
		if len(echoed) > sent || !bytes.Equal(echoed, payload[:len(echoed)]) {
			t.Fatalf("echoed %d bytes %q, sent %d bytes %q", len(echoed), echoed, sent, payload[:sent])
		}
	})
}
