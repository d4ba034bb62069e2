package main

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"mdm"
)

func TestBuildSystemFresh(t *testing.T) {
	for _, dataDir := range []string{"", t.TempDir()} {
		sys, err := buildSystem(dataDir, false, mdm.StoreOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if sys.Stats().Concepts != 0 {
			t.Error("fresh system not empty")
		}
		if persistent := sys.Storage() != nil; persistent != (dataDir != "") {
			t.Errorf("data dir %q: persistent = %v", dataDir, persistent)
		}
		if err := sys.Close(); err != nil {
			t.Error(err)
		}
	}
}

func TestBuildSystemSeeded(t *testing.T) {
	sys, err := buildSystem("", true, mdm.StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	st := sys.Stats()
	if st.Concepts != 4 || st.Wrappers != 6 {
		t.Errorf("seeded stats = %+v", st)
	}
	if v := sys.Validate(); len(v) != 0 {
		t.Errorf("seeded system inconsistent: %v", v)
	}
}

// TestServeWithDrainCompletesInFlight: SIGINT (ctx cancellation) while
// a streaming response is mid-flight closes the listener but lets the
// stream finish inside the drain window.
func TestServeWithDrainCompletesInFlight(t *testing.T) {
	started := make(chan struct{})
	mux := http.NewServeMux()
	mux.HandleFunc("/stream", func(w http.ResponseWriter, r *http.Request) {
		fl := w.(http.Flusher)
		w.Header().Set("Content-Type", "application/x-ndjson")
		for i := 0; i < 5; i++ {
			fmt.Fprintf(w, "{\"row\":%d}\n", i)
			fl.Flush()
			if i == 0 {
				close(started) // first chunk is out; trigger shutdown now
			}
			time.Sleep(20 * time.Millisecond)
		}
	})
	srv := &http.Server{Handler: mux}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- serveWithDrain(ctx, srv, ln, 5*time.Second) }()

	resp, err := http.Get("http://" + ln.Addr().String() + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	<-started
	cancel() // the SIGINT

	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("stream aborted during drain: %v", err)
	}
	if got := strings.Count(string(body), "\n"); got != 5 {
		t.Fatalf("stream rows = %d, want 5 (full stream despite shutdown)", got)
	}
	if err := <-done; err != nil {
		t.Fatalf("serveWithDrain = %v", err)
	}
	// The listener is down: new connections fail.
	if _, err := http.Get("http://" + ln.Addr().String() + "/stream"); err == nil {
		t.Fatal("listener still accepting after drain")
	}
}

// TestServeWithDrainExpiryAborts: a request that outlives the drain
// window is cut off and serveWithDrain still returns.
func TestServeWithDrainExpiryAborts(t *testing.T) {
	block := make(chan struct{})
	t.Cleanup(func() { close(block) })
	entered := make(chan struct{})
	srv := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		close(entered)
		<-block
	})}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- serveWithDrain(ctx, srv, ln, 50*time.Millisecond) }()

	go http.Get("http://" + ln.Addr().String() + "/") //nolint:errcheck // aborted by design
	<-entered
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("serveWithDrain = %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("serveWithDrain hung past the drain window")
	}
}
