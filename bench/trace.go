package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"
)

// span is one bench-side measurement around a call the bench itself makes:
// a client round trip, or one layer's share of an in-process replay. Spans
// of one request share Seq; Parent is the span that caused this one (0 for
// a root). Spans inside the program are a later issue (ROADMAP item 5).
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"`
	Workload string `json:"workload"`
	Seq      int    `json:"seq"`
	Layer    string `json:"layer"`
	Name     string `json:"name"`
	StartNS  int64  `json:"start_ns"`
	EndNS    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, which is how the untraced run pays one nil check per call.
type tracer struct {
	workload string
	t0       time.Time
	spans    []span
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, t0: time.Now()}
}

// begin opens a span and returns its id (0 on a nil tracer).
func (t *tracer) begin(parent, seq int, layer, name string) int {
	if t == nil {
		return 0
	}
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Workload: t.workload, Seq: seq,
		Layer: layer, Name: name, StartNS: int64(time.Since(t.t0)),
	})
	return id
}

// end closes the span begin returned.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	t.spans[id-1].EndNS = int64(time.Since(t.t0))
}

// layerTime is one (layer, name) row of the self-time table.
type layerTime struct {
	layer, name string
	count       int
	selfNS      int64
}

// selfTimes charges every span its duration minus its children's, grouped
// by (layer, name), for spans with id > from. Children never overlap here:
// the bench opens them one after another on one goroutine.
func (t *tracer) selfTimes(from int) []layerTime {
	if t == nil {
		return nil
	}
	child := make(map[int]int64)
	for _, s := range t.spans[from:] {
		if s.Parent > from {
			child[s.Parent] += s.EndNS - s.StartNS
		}
	}
	byKey := make(map[string]*layerTime)
	for _, s := range t.spans[from:] {
		key := s.Layer + "." + s.Name
		lt := byKey[key]
		if lt == nil {
			lt = &layerTime{layer: s.Layer, name: s.Name}
			byKey[key] = lt
		}
		lt.count++
		lt.selfNS += s.EndNS - s.StartNS - child[s.ID]
	}
	out := make([]layerTime, 0, len(byKey))
	for _, lt := range byKey {
		out = append(out, *lt)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].layer != out[j].layer {
			return out[i].layer < out[j].layer
		}
		return out[i].name < out[j].name
	})
	return out
}

// write renders the spans as JSON lines.
func (t *tracer) write(path string) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}()
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			return fmt.Errorf("trace span %d: %w", i, err)
		}
	}
	return bw.Flush()
}
