package fault

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// newBackend serves a fixed body and reports how many requests reached it.
func newBackend(t *testing.T, body string) (*httptest.Server, *int) {
	t.Helper()
	hits := new(int)
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		*hits++
		io.WriteString(w, body)
	}))
	t.Cleanup(hs.Close)
	return hs, hits
}

func TestTransportPassThrough(t *testing.T) {
	hs, hits := newBackend(t, "hello")
	client := &http.Client{Transport: NewTransport(nil, 1)}
	resp, err := client.Get(hs.URL)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if string(body) != "hello" || *hits != 1 {
		t.Fatalf("pass-through: body %q, hits %d", body, *hits)
	}
}

func TestTransportPartitionAndHeal(t *testing.T) {
	hs, hits := newBackend(t, "hello")
	tr := NewTransport(nil, 1)
	client := &http.Client{Transport: tr}

	tr.Partition(hs.URL)
	if _, err := client.Get(hs.URL); !errors.Is(err, ErrInjected) {
		t.Fatalf("partitioned GET err = %v, want ErrInjected", err)
	}
	if *hits != 0 {
		t.Fatalf("partitioned request reached the backend (%d hits)", *hits)
	}
	if tr.Injected() != 1 {
		t.Fatalf("injection counter: total %d, want 1", tr.Injected())
	}

	tr.Heal(hs.URL)
	resp, err := client.Get(hs.URL)
	if err != nil {
		t.Fatalf("healed GET: %v", err)
	}
	resp.Body.Close()
	if *hits != 1 {
		t.Fatalf("healed request did not reach the backend")
	}
}

func TestTransportHangRespectsContext(t *testing.T) {
	hs, hits := newBackend(t, "hello")
	tr := NewTransport(nil, 1)
	client := &http.Client{Transport: tr}
	tr.Set(hs.URL, NetFault{Hang: true})

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, hs.URL, nil)
	start := time.Now()
	_, err := client.Do(req)
	if err == nil {
		t.Fatal("hung request returned without error")
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("hang did not respect the request deadline")
	}
	if *hits != 0 {
		t.Fatal("hung request reached the backend")
	}
}

func TestTransportStatusBurst(t *testing.T) {
	hs, hits := newBackend(t, "hello")
	tr := NewTransport(nil, 1)
	client := &http.Client{Transport: tr}
	tr.Set(hs.URL, NetFault{Status: http.StatusServiceUnavailable, Count: 2})

	for i := 0; i < 2; i++ {
		resp, err := client.Get(hs.URL)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("burst request %d: status %d", i, resp.StatusCode)
		}
	}
	if *hits != 0 {
		t.Fatalf("burst requests reached the backend (%d hits)", *hits)
	}
	// The burst is spent: the third request passes through.
	resp, err := client.Get(hs.URL)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || *hits != 1 {
		t.Fatalf("post-burst: status %d, hits %d", resp.StatusCode, *hits)
	}
}

func TestTransportTruncatedBody(t *testing.T) {
	hs, _ := newBackend(t, strings.Repeat("x", 64))
	tr := NewTransport(nil, 1)
	client := &http.Client{Transport: tr}
	tr.Set(hs.URL, NetFault{TruncateBody: 10, Count: 1})

	resp, err := client.Get(hs.URL)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("torn body read err = %v, want io.ErrUnexpectedEOF", err)
	}
	if len(body) != 10 {
		t.Fatalf("torn body yielded %d bytes, want 10", len(body))
	}
}

func TestTransportCorruptByte(t *testing.T) {
	hs, _ := newBackend(t, "abcdef")
	tr := NewTransport(nil, 1)
	client := &http.Client{Transport: tr}
	tr.Set(hs.URL, NetFault{CorruptByte: 3, Count: 1})

	resp, err := client.Get(hs.URL)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if string(body) != "ab#def" { // 'c' ^ 0x40 == '#'
		t.Fatalf("corrupted body %q, want %q", body, "ab#def")
	}
}

func TestTransportScheduleStepsInOrder(t *testing.T) {
	hs, hits := newBackend(t, "hello")
	tr := NewTransport(nil, 1)
	client := &http.Client{Transport: tr}
	tr.Schedule(hs.URL, []NetFault{
		{Status: http.StatusInternalServerError, Count: 1},
		{Drop: true, Count: 1},
	})

	resp, err := client.Get(hs.URL)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("step 1: status %d, want 500", resp.StatusCode)
	}
	if _, err := client.Get(hs.URL); !errors.Is(err, ErrInjected) {
		t.Fatalf("step 2: err = %v, want ErrInjected", err)
	}
	// Schedule drained: pass-through.
	resp, err = client.Get(hs.URL)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || *hits != 1 {
		t.Fatalf("after schedule: status %d, hits %d", resp.StatusCode, *hits)
	}
}

func TestTransportSeededRateIsDeterministic(t *testing.T) {
	run := func() []bool {
		hs, _ := newBackend(t, "ok")
		tr := NewTransport(nil, 42)
		client := &http.Client{Transport: tr}
		tr.Set(hs.URL, NetFault{Status: http.StatusServiceUnavailable, Rate: 0.5})
		var outcomes []bool
		for i := 0; i < 20; i++ {
			resp, err := client.Get(hs.URL)
			if err != nil {
				t.Fatal(err)
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			outcomes = append(outcomes, resp.StatusCode == http.StatusServiceUnavailable)
		}
		return outcomes
	}
	a, b := run(), run()
	var affected int
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("request %d differs across identically seeded runs", i)
		}
		if a[i] {
			affected++
		}
	}
	if affected == 0 || affected == len(a) {
		t.Fatalf("rate 0.5 affected %d/%d requests", affected, len(a))
	}
}

func TestTransportLatencyDelays(t *testing.T) {
	hs, _ := newBackend(t, "ok")
	tr := NewTransport(nil, 7)
	client := &http.Client{Transport: tr}
	tr.Set(hs.URL, NetFault{Latency: 30 * time.Millisecond, Jitter: 10 * time.Millisecond, Count: 1})

	start := time.Now()
	resp, err := client.Get(hs.URL)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if d := time.Since(start); d < 30*time.Millisecond {
		t.Fatalf("latency fault delayed only %v", d)
	}
}
