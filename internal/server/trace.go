package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"

	"mvrlu/internal/obs"
)

// trace.go — the flight recorder's two query surfaces:
//
//   - TRACELOG over RESP: human-oriented one-line-per-trace text, the
//     operator's "where did my latency go" while attached with
//     redis-cli. Subcommands: TRACELOG [N] (N slowest), TRACELOG RECENT
//     [N] (most recent), TRACELOG GC [N] (engine timeline), TRACELOG
//     RESET (clear retained traces and timeline; counters stay
//     monotone).
//   - GET /debug/traces over the metrics listener: the same data as
//     JSON for tooling (?n= bounds the lists, ?gc=1 adds the engine
//     timeline).
//
// Both read the recorder and event ring through snapshot copies, so a
// dump never holds a lock while rendering and never blocks tracing.

// tracelogDefaultN bounds an argument-less TRACELOG / RECENT / GC dump.
const tracelogDefaultN = 10

// tracelogReq is one parsed TRACELOG invocation.
type tracelogReq struct {
	reset  bool
	gc     bool
	recent bool
	n      int
}

// parseTracelog validates TRACELOG [N | RESET | RECENT [N] | GC [N]];
// errmsg is "" on success and the error-reply text otherwise.
func parseTracelog(args [][]byte) (req tracelogReq, errmsg string) {
	req.n = tracelogDefaultN
	if len(args) == 1 {
		return req, ""
	}
	sub := strings.ToUpper(string(args[1]))
	switch sub {
	case "RESET":
		if len(args) != 2 {
			return req, arityMsg(string(args[0]))
		}
		req.reset = true
		return req, ""
	case "GC", "RECENT":
		req.gc = sub == "GC"
		req.recent = sub == "RECENT"
		if len(args) == 2 {
			return req, ""
		}
		if len(args) != 3 {
			return req, arityMsg(string(args[0]))
		}
		n, err := strconv.Atoi(string(args[2]))
		if err != nil || n <= 0 {
			return req, "ERR invalid TRACELOG count"
		}
		req.n = n
		return req, ""
	}
	if len(args) != 2 {
		return req, arityMsg(string(args[0]))
	}
	n, err := strconv.Atoi(sub)
	if err != nil || n <= 0 {
		return req, "ERR invalid TRACELOG count"
	}
	req.n = n
	return req, ""
}

// tracelogText renders one TRACELOG reply. Always-safe: snapshot reads
// only, callable under full load.
func (s *Server) tracelogText(req tracelogReq) string {
	switch {
	case req.reset:
		s.flight.Reset()
		obs.ResetEvents()
		return "OK\n"
	case req.gc:
		return renderEvents(obs.EventsSnapshot(req.n))
	case req.recent:
		return renderTraces("recent", s.flight.Recent(req.n), s.flight)
	}
	return renderTraces("slowest", s.flight.Slowest(req.n), s.flight)
}

// renderTraces writes the header line plus one line per trace.
func renderTraces(which string, traces []obs.TraceData, r *obs.Recorder) string {
	var b strings.Builder
	state := "off"
	if obs.TraceEnabled() {
		state = "on"
	}
	fmt.Fprintf(&b, "tracing=%s recorded=%d %s=%d\n",
		state, r.Recorded(), which, len(traces))
	for i := range traces {
		writeTraceLine(&b, &traces[i])
	}
	return b.String()
}

// writeTraceLine renders one trace as a key=value line: identity and
// shape first, then every raw stage total, then the adjusted dominant
// stage — the one-word latency attribution.
func writeTraceLine(b *strings.Builder, d *obs.TraceData) {
	fmt.Fprintf(b, "id=%d cmd=%s cmds=%d shards=%d total_ns=%d",
		d.ID, strings.ToLower(d.Cmd), d.Cmds, d.Shards, d.TotalNs)
	for st := obs.Stage(0); st < obs.NumStages; st++ {
		fmt.Fprintf(b, " %s=%d", st, d.Stages[st])
	}
	fmt.Fprintf(b, " dominant=%s", d.Dominant())
	if d.DroppedSpans > 0 {
		fmt.Fprintf(b, " dropped_spans=%d", d.DroppedSpans)
	}
	b.WriteByte('\n')
}

// renderEvents writes the engine timeline, oldest first.
func renderEvents(evs []obs.Event) string {
	var b strings.Builder
	fmt.Fprintf(&b, "events total=%d shown=%d\n", obs.EventsTotal(), len(evs))
	for _, e := range evs {
		fmt.Fprintf(&b, "ts_ns=%d kind=%s shard=%d value=%d aux=%d\n",
			e.TS, e.Kind, e.Tag, e.Value, e.Aux)
	}
	return b.String()
}

// JSON views for /debug/traces. Spans and stages are rendered with
// their stage names so consumers need no enum knowledge.

type traceJSON struct {
	ID           uint64           `json:"id"`
	Cmd          string           `json:"cmd"`
	Cmds         uint32           `json:"cmds"`
	Shards       uint32           `json:"shards"`
	StartNs      int64            `json:"start_ns"`
	TotalNs      int64            `json:"total_ns"`
	Stages       map[string]int64 `json:"stages"`
	Dominant     string           `json:"dominant"`
	Spans        []spanJSON       `json:"spans"`
	DroppedSpans int              `json:"dropped_spans,omitempty"`
}

type spanJSON struct {
	Stage string `json:"stage"`
	Start int64  `json:"start_ns"`
	Dur   int64  `json:"dur_ns"`
}

type eventJSON struct {
	TS    int64  `json:"ts_ns"`
	Kind  string `json:"kind"`
	Shard uint32 `json:"shard"`
	Value uint64 `json:"value"`
	Aux   uint64 `json:"aux"`
}

type tracesPageJSON struct {
	Tracing  bool        `json:"tracing"`
	Recorded uint64      `json:"recorded"`
	Slowest  []traceJSON `json:"slowest"`
	Recent   []traceJSON `json:"recent"`
	Events   []eventJSON `json:"events,omitempty"`
}

func traceToJSON(d *obs.TraceData) traceJSON {
	stages := make(map[string]int64, int(obs.NumStages))
	for st := obs.Stage(0); st < obs.NumStages; st++ {
		if d.Stages[st] != 0 {
			stages[st.String()] = d.Stages[st]
		}
	}
	spans := make([]spanJSON, 0, d.NSpans)
	for _, sp := range d.Spans[:d.NSpans] {
		spans = append(spans, spanJSON{
			Stage: sp.Stage.String(), Start: sp.Start, Dur: sp.Dur,
		})
	}
	return traceJSON{
		ID: d.ID, Cmd: strings.ToLower(d.Cmd), Cmds: d.Cmds,
		Shards: d.Shards, StartNs: d.StartNs, TotalNs: d.TotalNs,
		Stages: stages, Dominant: d.Dominant().String(),
		Spans: spans, DroppedSpans: d.DroppedSpans,
	}
}

// TraceHandler serves the flight recorder as JSON — the daemon mounts
// it at /debug/traces next to /metrics. Query parameters: n bounds the
// slowest/recent lists (default 10), gc=1 appends the engine timeline.
func (s *Server) TraceHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n := tracelogDefaultN
		if v := r.URL.Query().Get("n"); v != "" {
			if parsed, err := strconv.Atoi(v); err == nil && parsed > 0 {
				n = parsed
			}
		}
		page := tracesPageJSON{
			Tracing:  obs.TraceEnabled(),
			Recorded: s.flight.Recorded(),
			Slowest:  []traceJSON{},
			Recent:   []traceJSON{},
		}
		for _, d := range s.flight.Slowest(n) {
			page.Slowest = append(page.Slowest, traceToJSON(&d))
		}
		for _, d := range s.flight.Recent(n) {
			page.Recent = append(page.Recent, traceToJSON(&d))
		}
		if r.URL.Query().Get("gc") == "1" {
			evs := obs.EventsSnapshot(0)
			page.Events = make([]eventJSON, 0, len(evs))
			for _, e := range evs {
				page.Events = append(page.Events, eventJSON{
					TS: e.TS, Kind: e.Kind.String(), Shard: e.Tag,
					Value: e.Value, Aux: e.Aux,
				})
			}
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(page)
	})
}

// Flight exposes the server's trace flight recorder — tests and
// embedders query or reset it directly.
func (s *Server) Flight() *obs.Recorder { return s.flight }
