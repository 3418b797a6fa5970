// Package telemetry is the daemon's in-process instrumentation
// plane: lock-free, allocation-free counters, gauges and log-bucketed
// histograms, read only at scrape time into a hand-rolled Prometheus
// text-format exposition (no client_golang dependency — the writer
// is append-based over pooled buffers, in the same ethos as
// api/fast.go), plus a structured event log on log/slog.
//
// Every instrument is plain atomics, laid out in whole cache lines
// so that two instruments never share one: the hot path performs
// independent atomic adds and the scrape path reads them with atomic
// loads. There is no locking on either side; a scrape concurrent
// with updates sees a value at least as fresh as every update that
// completed before the scrape began — the same monotone-staleness
// contract the snapshot read path gives.
//
// Registration (NewCounter, NewGauge, …) is startup-time and may
// allocate, validate and panic; everything on the update path
// (Add, Inc, Observe) is wait-free and allocation-free.
package telemetry

import (
	"io"
	"log/slog"
	"math/bits"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing counter: one atomic on a
// cache line of its own (a 64-byte object is line-aligned on the
// heap), so writers of different instruments never false-share. The
// zero value is NOT usable — obtain counters from a Registry so they
// carry exposition metadata.
type Counter struct {
	v atomic.Int64
	_ [56]byte
}

// Add adds n (n ≥ 0).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Inc is Add(1).
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current total.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a settable instantaneous value: one atomic on a cache line
// of its own, like Counter.
type Gauge struct {
	v atomic.Int64
	_ [56]byte
}

// Set stores the current value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add moves the gauge by delta (may be negative).
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Inc / Dec move the gauge by ±1.
func (g *Gauge) Inc() { g.v.Add(1) }
func (g *Gauge) Dec() { g.v.Add(-1) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Unit selects how a histogram's observed integers are exposed.
type Unit int

const (
	// UnitCount exposes raw observed values (drain sizes,
	// iteration counts): le bounds are integers.
	UnitCount Unit = iota
	// UnitSeconds means observations are nanoseconds, exposed as
	// seconds (Prometheus base-unit convention): le bounds and the
	// _sum series are scaled by 1e-9.
	UnitSeconds
)

// histMaxBuckets bounds the fixed bucket array: shifts
// 0..histMaxShift inclusive, plus one overflow (+Inf) bucket.
const (
	histMaxShift   = 38
	histMaxBuckets = histMaxShift + 2
)

// Histogram is a log₂-bucketed distribution: bucket i (of the
// configured [minShift, maxShift] range) counts observations
// v ≤ 2^(minShift+i), with one +Inf overflow bucket. Observing is
// two independent atomic adds (bucket, sum). There is no separate
// count: the exposed _count is the +Inf cumulative bucket, so the two
// can never disagree in a scrape that races observers. _sum is
// best-effort under concurrent observation — a scrape may see an
// observation's bucket and not yet its sum, or the reverse — and
// exact once observers quiesce. The layout is whole cache lines: the
// header every observation reads has a line to itself, so observers
// never invalidate it, and the total (448 bytes, a heap size class of
// seven lines) keeps neighbouring histograms off each other's lines.
// The zero value is not usable — obtain histograms from a Registry.
type Histogram struct {
	minShift, maxShift int
	unit               Unit
	_                  [40]byte
	buckets            [histMaxBuckets]atomic.Int64
	sum                atomic.Int64
	_                  [56]byte
}

// bucketFor maps an observed value to its bucket index (0-based
// within the configured range; last index is the overflow bucket).
func (h *Histogram) bucketFor(v int64) int {
	if v <= 0 {
		return 0
	}
	// smallest shift s with v <= 2^s is bits.Len64(v-1)
	s := bits.Len64(uint64(v - 1))
	if s < h.minShift {
		return 0
	}
	if s > h.maxShift {
		return h.maxShift - h.minShift + 1 // +Inf
	}
	return s - h.minShift
}

// Observe records one duration (UnitSeconds histograms observe
// nanoseconds).
func (h *Histogram) Observe(d time.Duration) { h.ObserveInt(int64(d)) }

// ObserveInt records one observation.
func (h *Histogram) ObserveInt(v int64) {
	h.buckets[h.bucketFor(v)].Add(1)
	h.sum.Add(v)
}

// ObserveGroup records count observations totalling sum, bucketed at
// their integer mean: the exposed _sum and _count carry the group's
// totals while bucket resolution degrades to the group grain. Used where the
// producer only hands out aggregates (e.g. fixed-point iterations
// per probe).
func (h *Histogram) ObserveGroup(sum, count int64) {
	if count <= 0 {
		return
	}
	h.buckets[h.bucketFor(sum/count)].Add(count)
	h.sum.Add(sum)
}

// snapshot reads cumulative bucket counts (le ≤ 2^shift per
// configured bucket, then +Inf), plus the sum and the count — the
// +Inf cumulative bucket, so count and buckets agree by
// construction. Scrape-path only.
func (h *Histogram) snapshot(cum []int64) (sum, count int64, n int) {
	n = h.maxShift - h.minShift + 2 // configured buckets + overflow
	var run int64
	for i := 0; i < n; i++ {
		run += h.buckets[i].Load()
		cum[i] = run
	}
	return h.sum.Load(), run, n
}

// --- registry and exposition -----------------------------------------

// Label is one static label pair attached to a series at
// registration. Values are escaped at registration time; the update
// path never touches labels.
type Label struct{ Key, Value string }

type seriesKind int

const (
	kindCounter seriesKind = iota
	kindGauge
	kindGaugeFunc
	kindCounterFunc
	kindHistogram
)

// series is one exposition line (or histogram line group): a
// pre-rendered label string plus the live value source.
type series struct {
	labels string // `{k="v",…}` or ""
	kind   seriesKind
	c      *Counter
	g      *Gauge
	f      func() float64
	h      *Histogram
}

// family is one metric name: HELP/TYPE plus its series.
type family struct {
	name, help string
	typ        string // "counter" | "gauge" | "histogram"
	series     []series
}

// Registry owns a set of metric families and renders them. All
// registration methods are startup-time: they lock, validate and
// panic on misuse (mismatched type/help for an existing name,
// invalid metric names). Scraping locks only the family list (scrape
// vs. late registration), never the update path.
type Registry struct {
	mu         sync.Mutex
	fams       []*family
	onScrape   []func()
	scratchBuf sync.Pool
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{}
}

func (r *Registry) familyLocked(name, help, typ string) *family {
	if !validMetricName(name) {
		panic("telemetry: invalid metric name " + strconv.Quote(name))
	}
	for _, f := range r.fams {
		if f.name == name {
			if f.typ != typ || f.help != help {
				panic("telemetry: conflicting re-registration of " + name)
			}
			return f
		}
	}
	f := &family{name: name, help: help, typ: typ}
	r.fams = append(r.fams, f)
	return f
}

// NewCounter registers (or extends) the counter family name with one
// series carrying the given static labels and returns its handle.
func (r *Registry) NewCounter(name, help string, labels ...Label) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.familyLocked(name, help, "counter")
	c := &Counter{}
	f.series = append(f.series, series{labels: renderLabels(labels), kind: kindCounter, c: c})
	return c
}

// NewGauge registers a settable gauge series.
func (r *Registry) NewGauge(name, help string, labels ...Label) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.familyLocked(name, help, "gauge")
	g := &Gauge{}
	f.series = append(f.series, series{labels: renderLabels(labels), kind: kindGauge, g: g})
	return g
}

// NewGaugeFunc registers a gauge series whose value is computed at
// scrape time (occupancy, runtime stats).
func (r *Registry) NewGaugeFunc(name, help string, fn func() float64, labels ...Label) {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.familyLocked(name, help, "gauge")
	f.series = append(f.series, series{labels: renderLabels(labels), kind: kindGaugeFunc, f: fn})
}

// NewCounterFunc registers a counter series backed by a scrape-time
// callback — for monotone totals owned elsewhere (GC pause totals,
// store eviction counts).
func (r *Registry) NewCounterFunc(name, help string, fn func() float64, labels ...Label) {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.familyLocked(name, help, "counter")
	f.series = append(f.series, series{labels: renderLabels(labels), kind: kindCounterFunc, f: fn})
}

// NewHistogram registers a log₂-bucketed histogram series whose
// buckets span 2^minShift … 2^maxShift in the observed unit.
func (r *Registry) NewHistogram(name, help string, unit Unit, minShift, maxShift int, labels ...Label) *Histogram {
	if minShift < 0 || maxShift > histMaxShift || minShift > maxShift {
		panic("telemetry: histogram shift range out of bounds for " + name)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.familyLocked(name, help, "histogram")
	h := &Histogram{minShift: minShift, maxShift: maxShift, unit: unit}
	f.series = append(f.series, series{labels: renderLabels(labels), kind: kindHistogram, h: h})
	return h
}

// OnScrape registers a hook run at the start of every exposition
// (before any value is read) — collectors that refresh gauges from
// snapshots (runtime.ReadMemStats, store occupancy) hang here.
func (r *Registry) OnScrape(fn func()) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.onScrape = append(r.onScrape, fn)
}

// WritePrometheus appends the full text-format exposition
// (version 0.0.4) to buf and returns it. Families render in
// registration order — deterministic, so tests can pin the layout.
func (r *Registry) WritePrometheus(buf []byte) []byte {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, fn := range r.onScrape {
		fn()
	}
	var cum [histMaxBuckets]int64
	for _, f := range r.fams {
		buf = append(buf, "# HELP "...)
		buf = append(buf, f.name...)
		buf = append(buf, ' ')
		buf = appendEscapedHelp(buf, f.help)
		buf = append(buf, "\n# TYPE "...)
		buf = append(buf, f.name...)
		buf = append(buf, ' ')
		buf = append(buf, f.typ...)
		buf = append(buf, '\n')
		for i := range f.series {
			s := &f.series[i]
			switch s.kind {
			case kindCounter:
				buf = append(buf, f.name...)
				buf = append(buf, s.labels...)
				buf = append(buf, ' ')
				buf = strconv.AppendInt(buf, s.c.Value(), 10)
				buf = append(buf, '\n')
			case kindGauge:
				buf = append(buf, f.name...)
				buf = append(buf, s.labels...)
				buf = append(buf, ' ')
				buf = strconv.AppendInt(buf, s.g.Value(), 10)
				buf = append(buf, '\n')
			case kindGaugeFunc, kindCounterFunc:
				buf = append(buf, f.name...)
				buf = append(buf, s.labels...)
				buf = append(buf, ' ')
				buf = appendFloat(buf, s.f())
				buf = append(buf, '\n')
			case kindHistogram:
				buf = s.appendHistogram(buf, f.name, cum[:])
			}
		}
	}
	return buf
}

// appendHistogram renders one histogram series: cumulative
// _bucket{le=…} lines, then _sum and _count.
func (s *series) appendHistogram(buf []byte, name string, cum []int64) []byte {
	h := s.h
	sum, count, n := h.snapshot(cum)
	for i := 0; i < n; i++ {
		buf = append(buf, name...)
		buf = append(buf, "_bucket"...)
		buf = appendLabelsWithLE(buf, s.labels, h, i, n)
		buf = append(buf, ' ')
		buf = strconv.AppendInt(buf, cum[i], 10)
		buf = append(buf, '\n')
	}
	buf = append(buf, name...)
	buf = append(buf, "_sum"...)
	buf = append(buf, s.labels...)
	buf = append(buf, ' ')
	if h.unit == UnitSeconds {
		buf = appendFloat(buf, float64(sum)/1e9)
	} else {
		buf = strconv.AppendInt(buf, sum, 10)
	}
	buf = append(buf, '\n')
	buf = append(buf, name...)
	buf = append(buf, "_count"...)
	buf = append(buf, s.labels...)
	buf = append(buf, ' ')
	buf = strconv.AppendInt(buf, count, 10)
	buf = append(buf, '\n')
	return buf
}

// appendLabelsWithLE splices le="…" into the series' pre-rendered
// label string (bucket i of n; the last bucket is +Inf).
func appendLabelsWithLE(buf []byte, labels string, h *Histogram, i, n int) []byte {
	buf = append(buf, '{')
	if labels != "" {
		buf = append(buf, labels[1:len(labels)-1]...) // strip { }
		buf = append(buf, ',')
	}
	buf = append(buf, `le="`...)
	if i == n-1 {
		buf = append(buf, "+Inf"...)
	} else {
		bound := int64(1) << (h.minShift + i)
		if h.unit == UnitSeconds {
			buf = appendFloat(buf, float64(bound)/1e9)
		} else {
			buf = strconv.AppendInt(buf, bound, 10)
		}
	}
	buf = append(buf, `"}`...)
	return buf
}

// appendFloat renders a float the way Prometheus parsers expect:
// shortest round-trip representation.
func appendFloat(buf []byte, v float64) []byte {
	return strconv.AppendFloat(buf, v, 'g', -1, 64)
}

// ServeHTTP renders the exposition over a pooled buffer —
// GET /metrics.
func (r *Registry) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	bp, _ := r.scratchBuf.Get().(*[]byte)
	if bp == nil {
		b := make([]byte, 0, 16<<10)
		bp = &b
	}
	buf := r.WritePrometheus((*bp)[:0])
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(buf)
	*bp = buf[:0]
	r.scratchBuf.Put(bp)
}

// renderLabels pre-bakes `{k="v",…}` at registration time.
func renderLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	b := []byte{'{'}
	for i, l := range labels {
		if !validLabelName(l.Key) {
			panic("telemetry: invalid label name " + strconv.Quote(l.Key))
		}
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, l.Key...)
		b = append(b, `="`...)
		b = appendEscapedLabelValue(b, l.Value)
		b = append(b, '"')
	}
	return string(append(b, '}'))
}

func validMetricName(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		ok := c == '_' || c == ':' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(i > 0 && c >= '0' && c <= '9')
		if !ok {
			return false
		}
	}
	return true
}

func validLabelName(s string) bool {
	if s == "" || s == "le" { // le is reserved for histogram buckets
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		ok := c == '_' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(i > 0 && c >= '0' && c <= '9')
		if !ok {
			return false
		}
	}
	return true
}

// appendEscapedLabelValue escapes per the text format: backslash,
// double-quote and newline.
func appendEscapedLabelValue(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		switch c := s[i]; c {
		case '\\':
			b = append(b, `\\`...)
		case '"':
			b = append(b, `\"`...)
		case '\n':
			b = append(b, `\n`...)
		default:
			b = append(b, c)
		}
	}
	return b
}

// appendEscapedHelp escapes HELP text: backslash and newline.
func appendEscapedHelp(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		switch c := s[i]; c {
		case '\\':
			b = append(b, `\\`...)
		case '\n':
			b = append(b, `\n`...)
		default:
			b = append(b, c)
		}
	}
	return b
}

// --- event log -------------------------------------------------------

// NewEventLog returns the structured event log: one JSON object per
// line on w, {"ts":…,"level":"info","event":…,<attrs>}, events below
// info dropped. It is a slog.JSONHandler whose built-in keys are
// renamed to the line's; a nil *slog.Logger is the disabled log, so
// callers guard each event with one nil check.
func NewEventLog(w io.Writer) *slog.Logger {
	return slog.New(slog.NewJSONHandler(w, &slog.HandlerOptions{ReplaceAttr: eventLineKeys}))
}

// eventLineKeys maps slog's built-in keys onto the event line's: ts
// in UTC, a lowercase level, event for the message.
func eventLineKeys(groups []string, a slog.Attr) slog.Attr {
	if len(groups) > 0 {
		return a
	}
	switch a.Key {
	case slog.TimeKey:
		if a.Value.Kind() == slog.KindTime {
			return slog.Time("ts", a.Value.Time().UTC())
		}
	case slog.LevelKey:
		if lv, ok := a.Value.Any().(slog.Level); ok {
			return slog.String(slog.LevelKey, strings.ToLower(lv.String()))
		}
	case slog.MessageKey:
		a.Key = "event"
	}
	return a
}
