package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// The tracer records a span around every call the harness makes into a
// layer: name, start, end, the span that caused it and the window it
// belongs to. Spans live in memory and are written out when the run
// ends. Totals and self time are kept for every span; the raw records
// are kept up to maxStoredSpans so the file stays readable.

type spanName uint8

const (
	spanLap spanName = iota
	spanSend
	spanFlush
	spanStep
	spanHandover
	spanPoll
	spanTick
	spanKill
	spanRevive
	spanElection
	spanResend
	spanAdvance
	spanDrain
	spanNewDriver
	spanStart
	numSpanNames
)

var spanNames = [numSpanNames]string{
	"harness.lap", "vehicle.send", "vehicle.flush", "rsu.step", "rsu.handover",
	"vehicle.poll", "stream.tick", "stream.kill", "stream.revive", "stream.election",
	"vehicle.resend", "city.advance", "city.drain", "city.new_driver", "city.start",
}

const maxStoredSpans = 1 << 18

type span struct {
	name   spanName
	parent int32 // index into spans, -1 for a root
	window int32
	start  int64 // ns since the tracer's epoch
	end    int64
}

type spanAgg struct {
	count  int64
	total  int64 // ns
	self   int64 // ns: total minus time covered by child spans
	durs   []int64
	sample bool // keep individual durations (rare, slow spans only)
}

type openSpan struct {
	name   spanName
	idx    int32
	window int32
	start  int64
	child  int64
}

// tracer is owned by one goroutine. A nil or disabled tracer costs a
// nil check and a branch per call.
type tracer struct {
	on      bool
	goID    int
	epoch   time.Time
	spans   []span
	open    []openSpan
	agg     [numSpanNames]spanAgg
	dropped int64
}

func newTracer(goID int, epoch time.Time) *tracer {
	t := &tracer{goID: goID, epoch: epoch, spans: make([]span, 0, maxStoredSpans)}
	for _, n := range []spanName{spanHandover, spanTick, spanKill, spanRevive, spanElection,
		spanResend, spanAdvance, spanDrain, spanNewDriver, spanStart, spanFlush, spanPoll, spanStep} {
		t.agg[n].sample = true
	}
	return t
}

func (t *tracer) enabled() bool { return t != nil && t.on }

func (t *tracer) begin(name spanName, window int32) {
	if t == nil || !t.on {
		return
	}
	idx := int32(-1)
	if len(t.spans) < maxStoredSpans {
		parent := int32(-1)
		if n := len(t.open); n > 0 {
			parent = t.open[n-1].idx
		}
		idx = int32(len(t.spans))
		t.spans = append(t.spans, span{name: name, parent: parent, window: window})
	} else {
		t.dropped++
	}
	now := int64(time.Since(t.epoch))
	if idx >= 0 {
		t.spans[idx].start = now
	}
	t.open = append(t.open, openSpan{name: name, idx: idx, window: window, start: now})
}

// end closes the innermost open span. The harness nests its calls
// strictly, so no span handle is needed.
func (t *tracer) end() {
	if t == nil || !t.on || len(t.open) == 0 {
		return
	}
	now := int64(time.Since(t.epoch))
	o := t.open[len(t.open)-1]
	t.open = t.open[:len(t.open)-1]
	dur := now - o.start
	a := &t.agg[o.name]
	a.count++
	a.total += dur
	a.self += dur - o.child
	if a.sample && len(a.durs) < maxStoredSpans {
		a.durs = append(a.durs, dur)
	}
	if o.idx >= 0 {
		t.spans[o.idx].end = now
	}
	if n := len(t.open); n > 0 {
		t.open[n-1].child += dur
	}
}

func (t *tracer) count(name spanName) int64 {
	if t == nil {
		return 0
	}
	return t.agg[name].count
}

// meanNs is the mean duration of a span name, 0 when it never ran.
func (t *tracer) meanNs(name spanName) float64 {
	if t == nil || t.agg[name].count == 0 {
		return 0
	}
	return float64(t.agg[name].total) / float64(t.agg[name].count)
}

// medianNs is the median duration of a sampled span name.
func (t *tracer) medianNs(name spanName) float64 {
	if t == nil || len(t.agg[name].durs) == 0 {
		return 0
	}
	f := make([]float64, len(t.agg[name].durs))
	for i, d := range t.agg[name].durs {
		f[i] = float64(d)
	}
	return median(f)
}

// writeTrace writes the stored spans of every tracer as JSON lines.
func writeTrace(path string, tracers ...*tracer) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	for _, t := range tracers {
		if t == nil {
			continue
		}
		for i, s := range t.spans {
			if s.end == 0 {
				continue // never closed
			}
			fmt.Fprintf(w, `{"g":%d,"id":%d,"name":%q,"start_ns":%d,"end_ns":%d,"parent":%d,"window":%d}`+"\n",
				t.goID, i, spanNames[s.name], s.start, s.end, s.parent, s.window)
		}
		if t.dropped > 0 {
			fmt.Fprintf(w, `{"g":%d,"dropped_spans":%d}`+"\n", t.goID, t.dropped)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layerTable renders count, total, self time and mean per span name.
func layerTable(tracers ...*tracer) []string {
	var agg [numSpanNames]spanAgg
	for _, t := range tracers {
		if t == nil {
			continue
		}
		for i := range t.agg {
			agg[i].count += t.agg[i].count
			agg[i].total += t.agg[i].total
			agg[i].self += t.agg[i].self
		}
	}
	out := []string{fmt.Sprintf("%-18s %10s %12s %12s %12s", "span", "count", "total_ms", "self_ms", "mean_us")}
	for i, a := range agg {
		if a.count == 0 {
			continue
		}
		out = append(out, fmt.Sprintf("%-18s %10d %12.2f %12.2f %12.3f", spanNames[i], a.count,
			float64(a.total)/1e6, float64(a.self)/1e6, float64(a.total)/float64(a.count)/1e3))
	}
	return out
}

// spanCostNs measures what one begin/end pair costs on this host.
func spanCostNs() float64 {
	const n = 100_000
	t := newTracer(-1, time.Now())
	t.on = true
	t0 := time.Now()
	for i := 0; i < n; i++ {
		t.begin(spanSend, 0)
		t.end()
	}
	return float64(time.Since(t0)) / n
}
