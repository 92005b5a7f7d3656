package main

import (
	"bytes"
	"context"
	"io"
	"net"
	"net/http"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"
)

// syncBuffer lets the test read the daemon's stderr while serve is
// writing to it from another goroutine.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

var listenLine = regexp.MustCompile(`listening on (http://[^\s]+)`)

// daemon is a closnetd serve loop running in the test.
type daemon struct {
	base   string
	stderr *syncBuffer
	cancel context.CancelFunc
	served chan error
}

// boot starts serve on an ephemeral port with the extra flags and waits
// for it to announce its address. The daemon is cancelled at cleanup.
func boot(t *testing.T, flags ...string) *daemon {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	d := &daemon{stderr: &syncBuffer{}, cancel: cancel, served: make(chan error, 1)}
	t.Cleanup(cancel)
	args := append([]string{"-addr", "127.0.0.1:0", "-workers", "2"}, flags...)
	go func() { d.served <- serve(ctx, args, d.stderr) }()

	deadline := time.Now().Add(10 * time.Second)
	for {
		if m := listenLine.FindStringSubmatch(d.stderr.String()); m != nil {
			d.base = m[1]
			return d
		}
		select {
		case err := <-d.served:
			t.Fatalf("serve exited early: %v\nstderr: %s", err, d.stderr.String())
		default:
		}
		if time.Now().After(deadline) {
			t.Fatalf("daemon never announced its address\nstderr: %s", d.stderr.String())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestServeAndShutdown boots the daemon on an ephemeral port, round-trips
// a health check and an evaluation, then cancels the context and expects
// a clean drain.
func TestServeAndShutdown(t *testing.T) {
	d := boot(t)
	base, stderr, cancel, served := d.base, d.stderr, d.cancel, d.served

	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatalf("healthz: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: status %d", resp.StatusCode)
	}

	scenario := `{"tors": 2, "servers": 1, "middles": 2,
		"flows": [{"srcSwitch": 1, "srcServer": 1, "dstSwitch": 2, "dstServer": 1}]}`
	post, err := http.Post(base+"/v1/evaluate", "application/json", strings.NewReader(scenario))
	if err != nil {
		t.Fatalf("evaluate: %v", err)
	}
	body, _ := io.ReadAll(post.Body)
	post.Body.Close()
	if post.StatusCode != http.StatusOK {
		t.Fatalf("evaluate: status %d, body %s", post.StatusCode, body)
	}
	if !strings.Contains(string(body), `"throughput"`) {
		t.Errorf("evaluate response lacks a throughput: %s", body)
	}

	cancel()
	select {
	case err := <-served:
		if err != nil {
			t.Fatalf("serve: %v\nstderr: %s", err, stderr.String())
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("daemon never shut down\nstderr: %s", stderr.String())
	}
	if !strings.Contains(stderr.String(), "shutdown complete") {
		t.Errorf("no clean shutdown marker in stderr: %s", stderr.String())
	}
}

// TestSlowHeadersDisconnected: a client that dribbles its request
// headers, one line every 50 ms, is disconnected once
// -read-header-timeout expires, and headers past -max-header-bytes get
// a 431.
func TestSlowHeadersDisconnected(t *testing.T) {
	d := boot(t, "-read-header-timeout", "300ms", "-max-header-bytes", "4096")
	c, err := net.Dial("tcp", strings.TrimPrefix(d.base, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	closed := make(chan struct{})
	go func() {
		io.Copy(io.Discard, c) // returns once the server closes the connection
		close(closed)
	}()
	start := time.Now()
	io.WriteString(c, "POST /v1/evaluate HTTP/1.1\r\nHost: closnetd\r\n")
	tick := time.NewTicker(50 * time.Millisecond)
	defer tick.Stop()
	giveUp := time.After(10 * time.Second)
	for done := false; !done; {
		select {
		case <-closed:
			done = true
		case <-tick.C:
			io.WriteString(c, "X-Drip: 1\r\n") // fails once the server is gone
		case <-giveUp:
			t.Fatal("a client dribbling its headers was never disconnected")
		}
	}
	if el := time.Since(start); el < 250*time.Millisecond {
		t.Errorf("disconnected after %v, before the 300ms header timeout", el)
	}

	req, err := http.NewRequest(http.MethodGet, d.base+"/healthz", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Big", strings.Repeat("a", 16<<10))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestHeaderFieldsTooLarge {
		t.Errorf("16 KiB of headers: status %d, want 431", resp.StatusCode)
	}
}

func TestBadFlag(t *testing.T) {
	var stderr bytes.Buffer
	if err := run([]string{"-no-such-flag"}, &stderr); err == nil {
		t.Fatal("unknown flag accepted")
	}
}
