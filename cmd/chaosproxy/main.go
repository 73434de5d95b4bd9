// Command chaosproxy is a fault-injecting reverse proxy for chaos smoke
// tests: it forwards everything to -target until its admin endpoint flips it
// into a fault mode, letting a shell harness impose network failures on one
// real link of a spawned cluster without touching the processes themselves.
//
//	chaosproxy -listen 127.0.0.1:19301 -target http://127.0.0.1:19210 \
//	           -admin 127.0.0.1:19302
//
// Admin API (separate listener, never fault-injected):
//
//	POST /fault?mode=pass|error|hang|slow|truncate   switch mode
//	GET  /fault                                      {"mode":..,"injected":..}
//
// Modes: pass forwards untouched; error answers 503 without forwarding (a
// crashed or overloaded node); hang holds the request until the client gives
// up (a wedged node — deadline budgets must bound it); slow forwards after a
// 500ms delay (tail latency — hedged reads race past it); truncate forwards
// but tears the response body mid-stream (a broken connection — clients must
// treat partial bytes as failure, not truth).
package main

import (
	"flag"
	"fmt"
	"net/http"
	"net/http/httputil"
	"net/url"
	"os"
	"sync"
	"time"

	"tcss/internal/fault"
	"tcss/internal/wire"
)

// modes maps each admin mode to the fault armed on the link to -target;
// pass heals it.
var modes = map[string]fault.NetFault{
	"pass":     {},
	"error":    {Status: http.StatusServiceUnavailable},
	"hang":     {Hang: true},
	"slow":     {Latency: 500 * time.Millisecond},
	"truncate": {TruncateBody: 32},
}

// proxy is a reverse proxy whose only transport is a fault.Transport: the
// admin endpoint arms or heals the one link it has.
type proxy struct {
	target string
	link   *fault.Transport

	mu   sync.Mutex
	mode string
}

func (p *proxy) serveAdmin(w http.ResponseWriter, r *http.Request) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if r.Method == http.MethodPost {
		mode := r.URL.Query().Get("mode")
		f, ok := modes[mode]
		if !ok {
			http.Error(w, fmt.Sprintf("unknown mode %q", mode), http.StatusBadRequest)
			return
		}
		if mode == "pass" {
			p.link.Heal(p.target)
		} else {
			p.link.Set(p.target, f)
		}
		p.mode = mode
	}
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprintf(w, "{\"mode\":%q,\"injected\":%d}\n", p.mode, p.link.Injected())
}

func main() {
	var (
		listen = flag.String("listen", "127.0.0.1:19301", "proxied (fault-injected) listen address")
		admin  = flag.String("admin", "127.0.0.1:19302", "admin listen address (POST /fault?mode=...)")
		target = flag.String("target", "", "upstream base URL to forward to")
	)
	flag.Parse()
	if *target == "" {
		fmt.Fprintln(os.Stderr, "chaosproxy: -target is required")
		os.Exit(1)
	}
	u, err := url.Parse(*target)
	if err != nil {
		fmt.Fprintln(os.Stderr, "chaosproxy:", err)
		os.Exit(1)
	}

	p := &proxy{target: *target, link: fault.NewTransport(nil, 1), mode: "pass"}
	rp := httputil.NewSingleHostReverseProxy(u)
	rp.Transport = p.link
	rp.ModifyResponse = func(resp *http.Response) error {
		// An injected 503 tells the client when to come back, as a shedding
		// node's own 503 does.
		if resp.StatusCode == http.StatusServiceUnavailable && resp.Header.Get(wire.RetryAfterHeader) == "" {
			resp.Header.Set(wire.RetryAfterHeader, "1")
		}
		return nil
	}

	adminMux := http.NewServeMux()
	adminMux.HandleFunc("/fault", p.serveAdmin)
	go func() {
		if err := http.ListenAndServe(*admin, adminMux); err != nil {
			fmt.Fprintln(os.Stderr, "chaosproxy admin:", err)
			os.Exit(1)
		}
	}()

	fmt.Printf("chaosproxy: %s -> %s (admin %s)\n", *listen, *target, *admin)
	if err := http.ListenAndServe(*listen, rp); err != nil {
		fmt.Fprintln(os.Stderr, "chaosproxy:", err)
		os.Exit(1)
	}
}
