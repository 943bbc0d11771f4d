package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// span is one host-time interval recorded by the benchmark around a
// call into a layer. Trace groups the spans of one operation (a config's
// cell); Parent is the enclosing span's ID, -1 for a root.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Name   string  `json:"name"`
	Trace  string  `json:"trace"`
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
}

func (s span) dur() float64 { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. A nil *tracer
// records nothing.
type tracer struct {
	spans []span
}

// add records a finished span and returns its ID.
func (t *tracer) add(name, trace string, parent int, iv interval) int {
	if t == nil {
		return -1
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Trace: trace,
		Start: iv.lo.Seconds(), End: iv.hi.Seconds()})
	return id
}

// open starts a span now and returns its ID; close ends it.
func (t *tracer) open(name, trace string, parent int) int {
	return t.add(name, trace, parent, interval{now(), 0})
}

func (t *tracer) close(id int) {
	if t != nil {
		t.spans[id].End = now().Seconds()
	}
}

// time runs f inside a span.
func (t *tracer) time(name, trace string, parent int, f func()) {
	start := now()
	f()
	t.add(name, trace, parent, interval{start, now()})
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval that its children cover. Overlapping children count
// once, and the parts of children outside the parent do not count.
func selfTimes(spans []span) []float64 {
	kids := make(map[int][]span)
	for _, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make([]float64, len(spans))
	for i, s := range spans {
		out[i] = s.dur() - covered(s.Start, s.End, kids[s.ID])
	}
	return out
}

// covered is the length of the union of the intervals of cs, clipped to
// [lo, hi].
func covered(lo, hi float64, cs []span) float64 {
	ivs := make([][2]float64, 0, len(cs))
	for _, c := range cs {
		a, b := max(c.Start, lo), min(c.End, hi)
		if b > a {
			ivs = append(ivs, [2]float64{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	total, curLo, curHi := 0.0, 0.0, 0.0
	for i, iv := range ivs {
		if i == 0 || iv[0] > curHi {
			total += curHi - curLo
			curLo, curHi = iv[0], iv[1]
			continue
		}
		curHi = max(curHi, iv[1])
	}
	if len(ivs) > 0 {
		total += curHi - curLo
	}
	return total
}

// writeSpans writes the spans and their self times as JSON.
func writeSpans(w io.Writer, spans []span) error {
	type row struct {
		span
		Self float64 `json:"self_s"`
	}
	self := selfTimes(spans)
	rows := make([]row, len(spans))
	for i, s := range spans {
		rows[i] = row{s, self[i]}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(rows)
}

// printSelfTimes prints the spans' total and self time summed by name.
func printSelfTimes(w io.Writer, spans []span) {
	self := selfTimes(spans)
	type agg struct{ total, self float64 }
	by := map[string]*agg{}
	var names []string
	for i, s := range spans {
		a := by[s.Name]
		if a == nil {
			a = &agg{}
			by[s.Name] = a
			names = append(names, s.Name)
		}
		a.total += s.dur()
		a.self += self[i]
	}
	fmt.Fprintf(w, "%-26s %10s %10s\n", "span", "total_s", "self_s")
	for _, n := range names {
		fmt.Fprintf(w, "%-26s %10.4f %10.4f\n", n, by[n].total, by[n].self)
	}
}
