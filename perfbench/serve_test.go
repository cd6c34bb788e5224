package main

import (
	"io"
	"net"
	"sync/atomic"
	"testing"
)

func TestCountingListener(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skip("no loopback listener:", err)
	}
	var read, written atomic.Int64
	cl := countingListener{Listener: ln, read: &read, written: &written}
	defer cl.Close()
	done := make(chan error, 1)
	go func() {
		c, err := cl.Accept()
		if err != nil {
			done <- err
			return
		}
		defer c.Close()
		buf := make([]byte, 5)
		if _, err := io.ReadFull(c, buf); err != nil {
			done <- err
			return
		}
		_, err = c.Write([]byte("0123456789"))
		done <- err
	}()
	c, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Write([]byte("hello")); err != nil {
		t.Fatal(err)
	}
	if _, err := io.ReadFull(c, make([]byte, 10)); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if read.Load() != 5 || written.Load() != 10 {
		t.Errorf("counted %d read and %d written, want 5 and 10", read.Load(), written.Load())
	}
}
