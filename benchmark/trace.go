package main

import (
	"bufio"
	"encoding/json"
	"os"
	"time"
)

// span is one timed interval at a layer boundary. Spans of one script op
// share Op; Parent is the id of the span that caused this one (0 = none).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. All spans are recorded
// by the benchmark around calls into the library; none come from inside it.
type tracer struct {
	t0    time.Time
	spans []span
	op    int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// nextOp starts a new script op and returns its identifier.
func (t *tracer) nextOp() int {
	t.op++
	return t.op
}

// add records a finished interval whose ends the caller already timed (the
// measurement loop reuses its latency timestamps, so an outer span costs an
// append and nothing on the clock).
func (t *tracer) add(parent, op int, name string, start, end time.Time) int {
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Op: op, Name: name,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds(),
	})
	return id
}

// open starts a span now; close ends it now.
func (t *tracer) open(parent, op int, name string) int {
	now := time.Now()
	return t.add(parent, op, name, now, now)
}

func (t *tracer) close(id int) { t.spans[id-1].End = time.Since(t.t0).Nanoseconds() }

func (t *tracer) dur(id int) time.Duration {
	s := t.spans[id-1]
	return time.Duration(s.End - s.Start)
}

// write dumps the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
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

// layerTime is one span name's totals over a trace.
type layerTime struct {
	name        string
	count       int
	total, self time.Duration
}

// selfTimes sums, per span name, the total duration and the self time: a
// span's duration minus the part of it its child spans cover. Children of
// one parent are sequential here, so the covered part is their clipped sum.
func selfTimes(spans []span) []layerTime {
	covered := make([]int64, len(spans)+1)
	for _, s := range spans {
		if s.Parent == 0 {
			continue
		}
		p := spans[s.Parent-1]
		covered[s.Parent] += max(0, min(s.End, p.End)-max(s.Start, p.Start))
	}
	at := map[string]int{}
	var out []layerTime
	for _, s := range spans {
		i, ok := at[s.Name]
		if !ok {
			i = len(out)
			at[s.Name] = i
			out = append(out, layerTime{name: s.Name})
		}
		d := s.End - s.Start
		out[i].count++
		out[i].total += time.Duration(d)
		out[i].self += time.Duration(d - covered[s.ID])
	}
	return out
}
