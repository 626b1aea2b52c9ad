package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// tracer keeps the traced run's spans and counters in memory. Spans are
// recorded only while on is set, so the same instrumented client and
// cluster serve the traced operations and the untraced ones the
// overhead is measured against.
type tracer struct {
	base time.Time
	on   atomic.Bool

	mu     sync.Mutex
	spans  []span
	counts map[string]float64
}

func newTracer() *tracer {
	return &tracer{base: time.Now(), counts: map[string]float64{}}
}

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

// start opens a span; the returned function closes and records it.
func (t *tracer) start(layer, name string) func() {
	if !t.on.Load() {
		return func() {}
	}
	s := t.now()
	return func() { t.record(layer, name, s, t.now()) }
}

func (t *tracer) record(layer, name string, start, end int64) {
	t.mu.Lock()
	t.spans = append(t.spans, span{Layer: layer, Name: name, Start: start, End: end})
	t.mu.Unlock()
}

// add bumps a named counter. Callers decide at the start of a call
// whether it is traced, so a call that ends after its operation still
// counts.
func (t *tracer) add(name string, v float64) {
	t.mu.Lock()
	t.counts[name] += v
	t.mu.Unlock()
}

func (t *tracer) count(name string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.counts[name]
}

// rootLayer and rootName mark the span around one whole operation.
const (
	rootLayer = "harness"
	rootName  = "op"
)

// traceLayers are the layers spans are recorded at, outside in.
var traceLayers = []string{rootLayer, "vos", "httpapi", "cluster"}

// finish groups spans into operations by containment in their op span,
// attributes parents and self times, and returns the operations in
// order with the per-layer self time summed over all of them.
func (t *tracer) finish() (ops [][]span, self map[string]int64) {
	t.mu.Lock()
	all := append([]span(nil), t.spans...)
	t.mu.Unlock()
	sort.SliceStable(all, func(a, b int) bool { return all[a].Start < all[b].Start })
	var roots []span
	var rest []span
	for _, s := range all {
		if s.Layer == rootLayer && s.Name == rootName {
			roots = append(roots, s)
		} else {
			rest = append(rest, s)
		}
	}
	self = map[string]int64{}
	id := 0
	for oi, r := range roots {
		sp := []span{r}
		for _, s := range rest {
			if s.Start >= r.Start && s.Start < r.End {
				sp = append(sp, s)
			}
		}
		// Keep recording order (end time) among the children: attribute
		// relies on it to nest identical intervals.
		sort.SliceStable(sp[1:], func(a, b int) bool { return sp[1+a].End < sp[1+b].End })
		attribute(sp)
		base := id
		for i := range sp {
			sp[i].Op = oi
			sp[i].ID = base + i
			if sp[i].Parent >= 0 {
				sp[i].Parent += base
			}
			self[sp[i].Layer] += sp[i].Self
		}
		id += len(sp)
		ops = append(ops, sp)
	}
	return ops, self
}

// writeSpans writes one JSON object per span, then one summary object
// per layer (see the package documentation for the format).
func writeSpans(path string, ops [][]span, self map[string]int64) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, sp := range ops {
		for _, s := range sp {
			if err := enc.Encode(s); err != nil {
				f.Close()
				return err
			}
		}
	}
	for _, l := range traceLayers {
		if err := enc.Encode(map[string]any{"layer": l, "selfNs": self[l], "ops": len(ops)}); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// route names a request by its method and path template, e.g.
// "GET /v1/sweeps/{id}/events".
func route(r *http.Request) string {
	parts := strings.Split(strings.Trim(r.URL.Path, "/"), "/")
	switch {
	case len(parts) >= 4 && parts[1] == "cache" && parts[2] == "entries":
		parts[3] = "{key}"
	case len(parts) >= 3 && (parts[1] == "sweeps" || parts[1] == "mc"):
		parts[2] = "{id}"
	}
	return r.Method + " /" + strings.Join(parts, "/")
}

// peerKind classifies outbound peer traffic for the cluster counters.
func peerKind(r *http.Request) string {
	switch p := r.URL.Path; {
	case strings.HasPrefix(p, "/v1/cache/entries/") && r.Method == http.MethodGet:
		return "cache_get"
	case strings.HasPrefix(p, "/v1/cache/entries/") && r.Method == http.MethodPut:
		return "cache_put"
	case strings.HasPrefix(p, "/v1/sweeps"):
		return "subsweep"
	case strings.HasPrefix(p, "/v1/mc"):
		return "mc"
	default:
		return "other"
	}
}

// timedTransport records a span per round trip, from the request until
// its response body is closed or drained, so an NDJSON event stream
// counts for as long as it is read. Counters are prefixed with prefix.
type timedTransport struct {
	base   http.RoundTripper
	tr     *tracer
	layer  string
	prefix string
	kind   func(*http.Request) string
}

func (t *timedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if !t.tr.on.Load() {
		return t.base.RoundTrip(req)
	}
	name := t.kind(req)
	start := t.tr.now()
	t.tr.add(t.prefix+"rpcs."+name, 1)
	if req.Method == http.MethodPost && req.URL.Path == "/v1/sweeps" {
		t.tr.add(t.prefix+"submits", 1)
	}
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		t.tr.add(t.prefix+"errors", 1)
		t.tr.record(t.layer, name, start, t.tr.now())
		return nil, err
	}
	if resp.StatusCode >= 500 {
		t.tr.add(t.prefix+"errors", 1)
	}
	resp.Body = &timedBody{ReadCloser: resp.Body, done: func(n int64) {
		end := t.tr.now()
		t.tr.record(t.layer, name, start, end)
		t.tr.add(t.prefix+"bytes."+name, float64(n))
		t.tr.add(t.prefix+"ns."+name, float64(end-start))
	}}
	return resp, nil
}

// timedBody reports the bytes read once, at EOF or Close.
type timedBody struct {
	io.ReadCloser
	n    int64
	once sync.Once
	done func(int64)
}

func (b *timedBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n += int64(n)
	if err == io.EOF {
		b.once.Do(func() { b.done(b.n) })
	}
	return n, err
}

func (b *timedBody) Close() error {
	b.once.Do(func() { b.done(b.n) })
	return b.ReadCloser.Close()
}

// serverTiming is the httpapi-layer middleware: one span per request
// handled by a node, and per-route request, time and byte counters.
func serverTiming(tr *tracer) func(http.Handler) http.Handler {
	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if !tr.on.Load() {
				next.ServeHTTP(w, r)
				return
			}
			rt := route(r)
			start := tr.now()
			cw := &countingWriter{ResponseWriter: w}
			next.ServeHTTP(cw, r)
			end := tr.now()
			tr.record("httpapi", rt, start, end)
			tr.add("srv.req."+rt, 1)
			tr.add("srv.ns."+rt, float64(end-start))
			tr.add("srv.bytes", float64(cw.n))
		})
	}
}

// countingWriter counts response bytes and keeps streaming handlers'
// Flush working.
type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (w *countingWriter) Write(p []byte) (int, error) {
	n, err := w.ResponseWriter.Write(p)
	w.n += int64(n)
	return n, err
}

func (w *countingWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

func (w *countingWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// prefixSum sums every counter whose name starts with prefix.
func (t *tracer) prefixSum(prefix string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := 0.0
	for k, v := range t.counts {
		if strings.HasPrefix(k, prefix) {
			s += v
		}
	}
	return s
}

// meanMs is a counter of nanoseconds per event count, in milliseconds
// (0 when nothing was counted).
func meanMs(ns, n float64) float64 {
	if n == 0 {
		return 0
	}
	return ns / n / 1e6
}

// routeBreakdown renders the per-route request counts per operation.
func (t *tracer) routeBreakdown(prefix string, ops int) string {
	t.mu.Lock()
	defer t.mu.Unlock()
	var keys []string
	for k := range t.counts {
		if strings.HasPrefix(k, prefix) {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&b, "  %-44s %8.2f /op\n", strings.TrimPrefix(k, prefix), t.counts[k]/float64(ops))
	}
	return b.String()
}
