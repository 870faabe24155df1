package main

import (
	"encoding/json"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	srj "repro"
)

// span is one timed interval at a layer boundary. Spans of one request
// share its request ID; Parent names the layer that caused the span.
type span struct {
	Name      string `json:"name"`
	Parent    string `json:"parent,omitempty"`
	RequestID string `json:"request_id"`
	Start     int64  `json:"start_ns"` // since the tracer's epoch
	End       int64  `json:"end_ns"`
}

// tracer keeps spans in memory. A nil *tracer records nothing, so the
// untraced run pays no tracing cost.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) add(name, parent, id string, start, end time.Time) {
	if t == nil {
		return
	}
	s := span{Name: name, Parent: parent, RequestID: id,
		Start: start.Sub(t.epoch).Nanoseconds(), End: end.Sub(t.epoch).Nanoseconds()}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// wrap opens a span named "<layer> <path>" around every request that
// carries a request ID. The router forwards the client's ID to the
// backends, which is what links a backend span to its router span.
func (t *tracer) wrap(layer, parent string, h http.Handler) http.Handler {
	if t == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := r.Header.Get(srj.RequestIDHeader)
		start := time.Now()
		h.ServeHTTP(w, r)
		if id != "" {
			t.add(layer+" "+r.URL.Path, parent, id, start, time.Now())
		}
	})
}

// probe runs fn inside a span of the layer probes.
func (t *tracer) probe(name string, fn func() error) (time.Duration, error) {
	start := time.Now()
	err := fn()
	end := time.Now()
	t.add("probe "+name, "probe", "probe", start, end)
	return end.Sub(start), err
}

// write saves the spans as one JSON array.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	blob, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, blob, 0o644)
}

// selfTimes are the per-request self times of each layer: a span's
// duration minus the part of its interval its child spans cover.
type selfTimes struct {
	serverSample []time.Duration // whole backend span of a draw
	routerSample []time.Duration // router span minus backend spans
	routerUpdate []time.Duration // router broadcast minus backend spans
	clientDraw   []time.Duration // client span minus router span
}

func (t *tracer) selfTimes() selfTimes {
	t.mu.Lock()
	byID := map[string][]span{}
	for _, s := range t.spans {
		byID[s.RequestID] = append(byID[s.RequestID], s)
	}
	t.mu.Unlock()
	var st selfTimes
	for _, spans := range byID {
		var client, router *span
		var backends []span
		for i := range spans {
			s := &spans[i]
			switch {
			case strings.HasPrefix(s.Name, "client "):
				client = s
			case strings.HasPrefix(s.Name, "router "):
				router = s
			case strings.HasPrefix(s.Name, "server "):
				backends = append(backends, *s)
			}
		}
		if router == nil {
			continue
		}
		self := time.Duration(router.End - router.Start - covered(*router, backends))
		switch router.Name {
		case "router /v1/sample":
			st.routerSample = append(st.routerSample, self)
			for _, b := range backends {
				st.serverSample = append(st.serverSample, time.Duration(b.End-b.Start))
			}
			if client != nil {
				st.clientDraw = append(st.clientDraw,
					time.Duration(client.End-client.Start-covered(*client, []span{*router})))
			}
		case "router /v1/update":
			st.routerUpdate = append(st.routerUpdate, self)
		}
	}
	return st
}

// covered returns how much of parent's interval the union of the
// children covers, in nanoseconds.
func covered(parent span, children []span) int64 {
	type iv struct{ lo, hi int64 }
	var ivs []iv
	for _, c := range children {
		lo, hi := max(c.Start, parent.Start), min(c.End, parent.End)
		if lo < hi {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var total, end int64
	for _, v := range ivs {
		if v.lo > end {
			end = v.lo
		}
		if v.hi > end {
			total += v.hi - end
			end = v.hi
		}
	}
	return total
}
