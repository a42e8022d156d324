package main

import (
	"cmp"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a module, recorded from this package.
// Spans of one quote share Req.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Req    int64  `json:"req,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	origin time.Time
	nextID atomic.Int64
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.origin)) }

// newID reserves a span id for a span recorded later with add.
func (t *tracer) newID() int64 { return t.nextID.Add(1) }

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// do runs fn inside a span; fn receives the span's id to parent the
// spans of the calls it makes.
func (t *tracer) do(name string, parent, req int64, fn func(id int64) error) error {
	s := span{ID: t.newID(), Parent: parent, Req: req, Name: name, Start: t.now()}
	err := fn(s.ID)
	s.End = t.now()
	t.add(s)
	return err
}

// layerTime is what the spans of one name add up to.
type layerTime struct {
	count int
	total time.Duration // summed durations
	self  time.Duration // summed self times
}

// byName totals the spans that keep accepts (all when nil) per name. A
// span's self time is its duration minus the part of it that its
// children's intervals cover.
func (t *tracer) byName(keep func(span) bool) map[string]layerTime {
	t.mu.Lock()
	spans := slices.Clone(t.spans)
	t.mu.Unlock()
	if keep != nil {
		spans = slices.DeleteFunc(spans, func(s span) bool { return !keep(s) })
	}
	children := map[int64][][2]int64{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := map[string]layerTime{}
	for _, s := range spans {
		lt := out[s.Name]
		lt.count++
		lt.total += time.Duration(s.End - s.Start)
		lt.self += time.Duration(s.End - s.Start - covered(s.Start, s.End, children[s.ID]))
		out[s.Name] = lt
	}
	return out
}

// covered returns the length of [lo, hi) that the union of ivs covers.
func covered(lo, hi int64, ivs [][2]int64) int64 {
	slices.SortFunc(ivs, func(a, b [2]int64) int { return cmp.Compare(a[0], b[0]) })
	var total int64
	cur := lo
	for _, iv := range ivs {
		a, b := max(iv[0], cur), min(iv[1], hi)
		if b > a {
			total += b - a
			cur = b
		}
	}
	return total
}

// write stores the spans with the run's provenance under
// root/.bench_build/traces.
func (t *tracer) write(o options, prov provenanceJSON) error {
	dir := filepath.Join(o.root, ".bench_build", "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	t.mu.Lock()
	b, err := json.Marshal(struct {
		Provenance provenanceJSON `json:"provenance"`
		Spans      []span         `json:"spans"`
	}{prov, t.spans})
	t.mu.Unlock()
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", o.workload, o.seed))
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	fmt.Printf("trace %s (%d spans)\n", path, len(t.spans))
	return nil
}
