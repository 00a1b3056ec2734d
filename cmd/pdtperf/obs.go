package main

// Measurement plumbing: process I/O and memory counters, Go runtime
// counters, the in-memory span recorder of traced runs, and sample
// statistics.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// procIO is a snapshot of /proc/self/io.
type procIO struct{ rchar, wchar, syscw int64 }

func readProcIO() procIO {
	var p procIO
	data, err := os.ReadFile("/proc/self/io")
	if err != nil {
		return p
	}
	for _, line := range strings.Split(string(data), "\n") {
		name, val, ok := strings.Cut(line, ": ")
		if !ok {
			continue
		}
		n, _ := strconv.ParseInt(val, 10, 64)
		switch name {
		case "rchar":
			p.rchar = n
		case "wchar":
			p.wchar = n
		case "syscw":
			p.syscw = n
		}
	}
	return p
}

func (p procIO) sub(q procIO) procIO {
	return procIO{rchar: p.rchar - q.rchar, wchar: p.wchar - q.wchar, syscw: p.syscw - q.syscw}
}

// rssBytes reads the resident set size from /proc/self/statm (a read of a
// few dozen bytes, so sampling it barely moves rchar).
func rssBytes() int64 {
	data, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(data))
	if len(f) < 2 {
		return 0
	}
	pages, _ := strconv.ParseInt(f[1], 10, 64)
	return pages * int64(os.Getpagesize())
}

// rssMonitor samples RSS every 10ms until stopped and keeps the peak.
type rssMonitor struct {
	peak int64
	stop chan struct{}
	done chan struct{}
}

func startRSS() *rssMonitor {
	m := &rssMonitor{peak: rssBytes(), stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(m.done)
		t := time.NewTicker(10 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-m.stop:
				m.peak = max(m.peak, rssBytes())
				return
			case <-t.C:
				m.peak = max(m.peak, rssBytes())
			}
		}
	}()
	return m
}

// finish stops the sampler and returns the peak RSS in bytes.
func (m *rssMonitor) finish() float64 {
	close(m.stop)
	<-m.done
	return float64(m.peak)
}

// goCounters reads cumulative heap allocation bytes and GC cycles.
func goCounters() (allocBytes, gcCycles uint64) {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(s)
	return s[0].Value.Uint64(), s[1].Value.Uint64()
}

// fsType names the filesystem holding dir.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint64(st.Type) {
	case 0xef53:
		return "ext4"
	case 0x01021994:
		return "tmpfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683e:
		return "btrfs"
	case 0x794c7630:
		return "overlayfs"
	default:
		return fmt.Sprintf("0x%x", uint64(st.Type))
	}
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) int64 {
	var n int64
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0
	}
	for _, e := range entries {
		if e.IsDir() {
			n += dirBytes(dir + "/" + e.Name())
			continue
		}
		if fi, err := e.Info(); err == nil {
			n += fi.Size()
		}
	}
	return n
}

// span is one traced public call. Spans of one transaction or query share
// ID; Parent indexes the enclosing span in the same recorder (-1 = root).
type span struct {
	Name   string `json:"name"`
	ID     uint64 `json:"id"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder keeps one client goroutine's spans in memory. A nil recorder
// (untraced runs) records nothing.
type recorder struct {
	t0    time.Time
	spans []span
}

func (r *recorder) open(name string, id uint64, parent int) int {
	if r == nil {
		return -1
	}
	r.spans = append(r.spans, span{Name: name, ID: id, Parent: parent, Start: int64(time.Since(r.t0))})
	return len(r.spans) - 1
}

func (r *recorder) close(i int) {
	if r == nil {
		return
	}
	r.spans[i].End = int64(time.Since(r.t0))
}

// durations returns the durations in µs of the recorder's spans named name.
func (r *recorder) durations(name string) []float64 {
	var out []float64
	if r == nil {
		return out
	}
	for _, s := range r.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e3)
		}
	}
	return out
}

// merge appends the spans of rs into one recorder, rebasing parents.
func merge(t0 time.Time, rs ...*recorder) *recorder {
	out := &recorder{t0: t0}
	for _, r := range rs {
		if r == nil {
			continue
		}
		off := len(out.spans)
		for _, s := range r.spans {
			if s.Parent >= 0 {
				s.Parent += off
			}
			out.spans = append(out.spans, s)
		}
	}
	return out
}

// selfTime is one span name's totals: a span's self time is its duration
// minus the time its child spans cover (children of one span never
// overlap, because each client issues its calls one at a time).
type selfTime struct {
	name        string
	count       int
	total, self time.Duration
}

func (r *recorder) selfTimes() []selfTime {
	child := make([]int64, len(r.spans))
	for _, s := range r.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	by := map[string]*selfTime{}
	for i, s := range r.spans {
		st := by[s.Name]
		if st == nil {
			st = &selfTime{name: s.Name}
			by[s.Name] = st
		}
		st.count++
		st.total += time.Duration(s.End - s.Start)
		st.self += time.Duration(s.End - s.Start - child[i])
	}
	out := make([]selfTime, 0, len(by))
	for _, st := range by {
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].self > out[j].self })
	return out
}

// write stores the spans as JSON lines.
func (r *recorder) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if err := writeSpans(w, r.spans); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func writeSpans(w io.Writer, spans []span) error {
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return nil
}

// quantile returns the nearest-rank q-quantile of xs (0 for no samples).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		m = math.Max(m, x)
	}
	return m
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
