package server

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"
)

// TestDribbledBodyCutOff: a client that sends its headers promptly and
// then dribbles its body is cut off once the body has taken the
// server's Timeout, with a 408, and no longer holds the drain gate.
func TestDribbledBodyCutOff(t *testing.T) {
	const timeout = 300 * time.Millisecond
	s, ts, _ := newTestServer(t, Options{Timeout: timeout})
	conn, err := net.Dial("tcp", ts.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	start := time.Now()
	fmt.Fprintf(conn, "POST /v1/evaluate HTTP/1.1\r\nHost: closnet\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n", len(scenarioBody))
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		for i := 0; i < len(scenarioBody); i++ {
			select {
			case <-stop:
				return
			case <-time.After(20 * time.Millisecond):
			}
			if _, err := conn.Write([]byte{scenarioBody[i]}); err != nil {
				return
			}
		}
	}()

	conn.SetReadDeadline(time.Now().Add(10 * timeout))
	resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
	if err != nil {
		t.Fatalf("no response to a dribbled body within %v: %v", 10*timeout, err)
	}
	resp.Body.Close()
	if elapsed := time.Since(start); elapsed > 3*timeout {
		t.Errorf("dribbled body cut off after %v, bound %v", elapsed, timeout)
	}
	if resp.StatusCode != http.StatusRequestTimeout {
		t.Errorf("dribbled body: status %d, want 408", resp.StatusCode)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Errorf("drain after the cut-off: %v", err)
	}
}

// TestComputeOutlastsBodyDeadline: a body sent promptly gets its full
// compute, even when the response comes after the body deadline would
// have expired. The batch's three items run one after another (one
// worker), each within its own Timeout, and together outlast it; were
// the read deadline left on the connection, net/http's background read
// would time out and cancel the request mid-batch.
func TestComputeOutlastsBodyDeadline(t *testing.T) {
	const timeout = 400 * time.Millisecond
	s, ts, _ := newTestServer(t, Options{Timeout: timeout, Workers: 1})
	s.computeStarted = func(context.Context, string) { time.Sleep(timeout / 2) }
	items := []string{scenarioBody, otherScenarioBody, `{"tors": 2, "servers": 1, "middles": 1, "flows": []}`}
	var b strings.Builder
	b.WriteString(`{"items": [`)
	for i, it := range items {
		if i > 0 {
			b.WriteString(",")
		}
		fmt.Fprintf(&b, `{"scenario": %s}`, it)
	}
	b.WriteString("]}")

	start := time.Now()
	resp, body := post(t, ts.URL+"/v1/batch", b.String())
	if elapsed := time.Since(start); elapsed < timeout {
		t.Fatalf("batch took %v, not past the %v body deadline: the test proves nothing", elapsed, timeout)
	}
	if resp.StatusCode != http.StatusOK {
		t.Errorf("batch outlasting the body deadline: status %d, want 200: %s", resp.StatusCode, body)
	}
}

// TestOversizeBodyStill413: a body past MaxBody gets a 413, not the
// 400 or 408 of other read failures.
func TestOversizeBodyStill413(t *testing.T) {
	_, ts, _ := newTestServer(t, Options{MaxBody: 64})
	for _, path := range []string{"/v1/evaluate", "/v1/batch", "/v1/session"} {
		resp, body := post(t, ts.URL+path, scenarioBody)
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Errorf("%s with a %d-byte body over a 64-byte MaxBody: status %d, want 413: %s", path, len(scenarioBody), resp.StatusCode, body)
		}
	}
}
