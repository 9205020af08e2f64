package webserve

import (
	"bytes"
	"context"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"sync/atomic"
	"testing"

	"repro/internal/faults"
	"repro/internal/htmlrefs"
	"repro/internal/workload"
)

// TestReadBodyTruncated: a body cut mid-transfer by the Truncate fault is
// still a retryable failure the client classifies as a reset, exactly as
// when bodies were read with io.ReadAll.
func TestReadBodyTruncated(t *testing.T) {
	w := tinyWorkload(t)
	srv := httptest.NewServer(faults.Middleware(
		faults.NewInjector(faults.Spec{TruncateRate: 1}, 7), nil, faults.Metrics{}, NewRepository(w)))
	defer srv.Close()

	c := NewClientOptions(w, quickOpts())
	const k = workload.ObjectID(3)
	data, _, err := c.get(context.Background(), srv.URL+htmlrefs.MOPath(k), "")
	if err == nil {
		t.Fatalf("truncated body read cleanly (%d bytes)", len(data))
	}
	if !retryable(err) {
		t.Fatalf("truncated body is not retryable: %v", err)
	}
	if got := failureReason(err); got != reasonReset {
		t.Fatalf("truncated body classified %q, want %q (%v)", got, reasonReset, err)
	}
	if int64(len(data)) >= int64(w.ObjectSize(k)) {
		t.Fatalf("truncated read returned %d bytes, want fewer than %d", len(data), w.ObjectSize(k))
	}
}

// TestReadBodyOversizedDeclaration: a server that declares a length far
// above anything the workload holds and then hangs up fails the request
// without the client allocating the declared size.
func TestReadBodyOversizedDeclaration(t *testing.T) {
	const declared = 256 << 20
	srv := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, req *http.Request) {
		conn, buf, err := rw.(http.Hijacker).Hijack()
		if err != nil {
			return
		}
		defer conn.Close()
		buf.WriteString("HTTP/1.1 200 OK\r\nContent-Type: application/octet-stream\r\nContent-Length: " +
			strconv.Itoa(declared) + "\r\n\r\n")
		buf.Write(make([]byte, 1000))
		buf.Flush()
	}))
	defer srv.Close()

	w := tinyWorkload(t)
	c := NewClientOptions(w, quickOpts())
	if c.maxBody >= declared {
		t.Fatalf("bound %d is not below the declared length", c.maxBody)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	data, _, err := c.get(context.Background(), srv.URL+"/mo/0", "")
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatalf("short body under an oversized declaration read cleanly (%d bytes)", len(data))
	}
	if !retryable(err) || failureReason(err) != reasonReset {
		t.Fatalf("oversized declaration: retryable=%v reason=%q (%v)", retryable(err), failureReason(err), err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= declared/8 {
		t.Fatalf("reading allocated %d bytes for a %d-byte declaration", grew, declared)
	}
}

// TestReadBodyChunked: a response without a declared length is read in
// full.
func TestReadBodyChunked(t *testing.T) {
	w := tinyWorkload(t)
	const k = workload.ObjectID(5)
	want, err := io.ReadAll(ObjectReader(w, RepoSource, k))
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, req *http.Request) {
		for off := 0; off < len(want); off += 1000 {
			rw.Write(want[off:min(off+1000, len(want))])
			rw.(http.Flusher).Flush()
		}
	}))
	defer srv.Close()

	c := NewClientOptions(w, quickOpts())
	got, hdr, err := c.get(context.Background(), srv.URL+htmlrefs.MOPath(k), "")
	if err != nil {
		t.Fatal(err)
	}
	if hdr.Get("Transfer-Encoding") == "" && hdr.Get("Content-Length") != "" {
		t.Fatal("response declared a length; the test needs a chunked body")
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("chunked body read as %d bytes, want %d", len(got), len(want))
	}
	if err := VerifyObject(w, k, got); err != nil {
		t.Fatal(err)
	}
}

// TestReadBodyExactReusesConnection: bodies read into an exactly sized
// buffer still end at the transport's EOF, so consecutive requests share
// one persistent connection.
func TestReadBodyExactReusesConnection(t *testing.T) {
	w := tinyWorkload(t)
	var conns atomic.Int64
	srv := httptest.NewUnstartedServer(NewRepository(w))
	srv.Config.ConnState = func(_ net.Conn, st http.ConnState) {
		if st == http.StateNew {
			conns.Add(1)
		}
	}
	srv.Start()
	defer srv.Close()

	c := NewClientOptions(w, quickOpts())
	for i := 0; i < 5; i++ {
		k := workload.ObjectID(i)
		data, _, err := c.get(context.Background(), srv.URL+htmlrefs.MOPath(k), "")
		if err != nil {
			t.Fatal(err)
		}
		if cap(data) != int(w.ObjectSize(k)) {
			t.Fatalf("object %d: buffer capacity %d, want exactly %d", k, cap(data), w.ObjectSize(k))
		}
		if err := VerifyObject(w, k, data); err != nil {
			t.Fatal(err)
		}
	}
	if n := conns.Load(); n != 1 {
		t.Fatalf("5 sequential fetches opened %d connections, want 1", n)
	}
}
