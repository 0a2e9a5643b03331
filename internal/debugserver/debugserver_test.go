package debugserver

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"testing"
	"time"

	"pnm/internal/obs"
)

func TestStartBadAddress(t *testing.T) {
	if s, err := Start("127.0.0.1:-1", obs.New()); err == nil {
		s.Shutdown()
		t.Fatal("Start accepted an invalid address")
	}
}

// debugVars fetches /debug/vars and returns its "pnm" object.
func debugVars(t *testing.T, s *Server) map[string]any {
	t.Helper()
	resp, err := http.Get("http://" + s.Addr().String() + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var vars map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&vars); err != nil {
		t.Fatal(err)
	}
	var pnm map[string]any
	if err := json.Unmarshal(vars["pnm"], &pnm); err != nil {
		t.Fatalf("no \"pnm\" object in /debug/vars: %v", err)
	}
	return pnm
}

// TestServesRegistry checks that /debug/vars publishes the registry
// handed to the latest Start under "pnm", and that Shutdown is clean.
func TestServesRegistry(t *testing.T) {
	for _, hits := range []uint64{3, 5} {
		reg := obs.New()
		reg.Counter("test.hits").Add(hits)
		s, err := Start("127.0.0.1:0", reg)
		if err != nil {
			t.Fatal(err)
		}
		if got := debugVars(t, s)["test.hits"]; got != float64(hits) {
			t.Fatalf("pnm.test.hits = %v, want %d", got, hits)
		}
		if err := s.Shutdown(); err != nil {
			t.Fatalf("Shutdown: %v", err)
		}
	}
}

// slowRoutes numbers the handlers TestShutdownDrainsInFlight registers on
// http.DefaultServeMux, which refuses a path twice under -count > 1.
var slowRoutes int

// TestShutdownDrainsInFlight checks that Shutdown lets a request already
// being handled finish instead of cutting its connection.
func TestShutdownDrainsInFlight(t *testing.T) {
	slowRoutes++
	path := fmt.Sprintf("/debug/test-slow-%d", slowRoutes)
	started := make(chan struct{})
	http.HandleFunc(path, func(w http.ResponseWriter, _ *http.Request) {
		close(started)
		time.Sleep(100 * time.Millisecond)
		io.WriteString(w, "done")
	})
	s, err := Start("127.0.0.1:0", obs.New())
	if err != nil {
		t.Fatal(err)
	}
	body := make(chan string, 1)
	go func() {
		resp, err := http.Get("http://" + s.Addr().String() + path)
		if err != nil {
			body <- "error: " + err.Error()
			return
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		body <- string(b)
	}()
	<-started
	if err := s.Shutdown(); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if got := <-body; got != "done" {
		t.Fatalf("in-flight request got %q, want \"done\"", got)
	}
}
