package obs

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Journal is the flight recorder's event log: a bounded ring buffer of
// structured events that is always on. Appending overwrites the oldest
// event once the ring is full, so memory stays fixed no matter how long
// the process runs, and the most recent window of activity — the one
// that explains the check that just blew its deadline — is always
// available at /debug/journal or via Snapshot.
//
// Appends take one short mutex-protected critical section (slot
// assignment plus a struct copy); event construction, including the
// clock read, happens outside the lock. A capacity of zero disables the
// journal entirely: Append becomes a single atomic load and return.
type Journal struct {
	mu     sync.Mutex
	buf    []Event
	start  int    // index of the oldest retained event once the ring is full
	next   uint64 // total events ever appended
	off    atomic.Bool
	onDrop func() // called (outside the lock) when an append overwrites
}

// Event is one journal entry. Trace carries the process-unique check or
// trace ID (see NextTraceID) so every event of one check — across
// pipeline stages, worker pools, and (in simulations) nodes — can be
// correlated after the fact; Node tags the originating simulation node
// where there is one.
type Event struct {
	Seq   uint64    `json:"seq"`
	Time  time.Time `json:"time"`
	Type  string    `json:"type"`
	Trace uint64    `json:"trace,omitempty"`
	Node  string    `json:"node,omitempty"`
	Attrs []Field   `json:"attrs,omitempty"`
}

// Field is one key/value attribute on an event.
type Field struct {
	Key string `json:"k"`
	Val any    `json:"v"`
}

// F builds a Field; it keeps Append call sites short.
func F(key string, val any) Field { return Field{Key: key, Val: val} }

// DefaultJournalCapacity sizes DefaultJournal. At roughly 150 bytes per
// event this bounds the recorder near one megabyte — a window of about
// a thousand checks at the ~8 events each the DCSat pipeline emits.
const DefaultJournalCapacity = 8192

// DefaultJournal is the process-wide flight recorder the packages under
// internal/ append into. cmd/bcnode serves it at /debug/journal.
var DefaultJournal = NewJournal(DefaultJournalCapacity)

func init() {
	// Feed overwrites into the windowed drop-rate counter so the
	// journal-drops SLO sees a *recent* drop rate, not lifetime totals.
	drops := DefaultWindows.Counter(MetricJournalDropped,
		"flight-recorder events overwritten before being read (ring overflow)")
	DefaultJournal.SetOnDrop(drops.Inc)
}

// NewJournal creates a journal holding at most capacity events.
// Capacity <= 0 returns a disabled journal whose Append is a no-op.
func NewJournal(capacity int) *Journal {
	if capacity <= 0 {
		j := &Journal{}
		j.off.Store(true)
		return j
	}
	return &Journal{buf: make([]Event, 0, capacity)}
}

// Enabled reports whether appends are recorded.
func (j *Journal) Enabled() bool { return !j.off.Load() }

// SetEnabled turns recording on or off at runtime. Disabling does not
// discard already-recorded events. Enabling a zero-capacity journal has
// no effect.
func (j *Journal) SetEnabled(on bool) {
	if on && cap(j.buf) == 0 {
		return
	}
	j.off.Store(!on)
}

// Append records an event. The timestamp is taken here; the sequence
// number is assigned inside the critical section, so sequence order and
// ring order agree even under concurrent appenders.
func (j *Journal) Append(typ string, trace uint64, node string, attrs ...Field) {
	if j.off.Load() {
		return
	}
	e := Event{Time: time.Now(), Type: typ, Trace: trace, Node: node, Attrs: attrs}
	var dropped bool
	j.mu.Lock()
	e.Seq = j.next
	j.next++
	if len(j.buf) < cap(j.buf) {
		j.buf = append(j.buf, e)
	} else {
		j.buf[j.start] = e
		j.start = (j.start + 1) % cap(j.buf)
		dropped = true
	}
	onDrop := j.onDrop
	j.mu.Unlock()
	if dropped && onDrop != nil {
		onDrop()
	}
}

// SetOnDrop installs a hook called once per overwritten (dropped)
// event — the windowed drop-rate instrument behind the journal-drops
// SLO. The hook runs outside the journal lock.
func (j *Journal) SetOnDrop(fn func()) {
	j.mu.Lock()
	j.onDrop = fn
	j.mu.Unlock()
}

// Resize changes the ring capacity at runtime, retaining the newest
// events that fit. A capacity <= 0 discards everything and disables
// the journal; a positive capacity (re-)enables it. Sequence numbers
// and TotalAppended are preserved.
func (j *Journal) Resize(capacity int) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if capacity <= 0 {
		j.buf = nil
		j.start = 0
		j.off.Store(true)
		return
	}
	kept := j.snapshotLocked()
	if len(kept) > capacity {
		kept = kept[len(kept)-capacity:]
	}
	j.buf = make([]Event, len(kept), capacity)
	copy(j.buf, kept)
	j.start = 0
	j.off.Store(false)
}

// Len returns the number of events currently retained.
func (j *Journal) Len() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return len(j.buf)
}

// TotalAppended returns the number of events ever appended, retained or
// not. TotalAppended() - Len() is the overwrite (drop) count.
func (j *Journal) TotalAppended() uint64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.next
}

// Capacity returns the ring size (0 when disabled at construction).
func (j *Journal) Capacity() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return cap(j.buf)
}

// Snapshot copies the retained events, oldest first.
func (j *Journal) Snapshot() []Event {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.snapshotLocked()
}

func (j *Journal) snapshotLocked() []Event {
	out := make([]Event, len(j.buf))
	if len(j.buf) < cap(j.buf) || len(j.buf) == 0 {
		copy(out, j.buf)
		return out
	}
	// Full ring: the oldest event sits at start.
	n := copy(out, j.buf[j.start:])
	copy(out[n:], j.buf[:j.start])
	return out
}

// CountByType tallies the retained events per type.
func (j *Journal) CountByType() map[string]int {
	j.mu.Lock()
	defer j.mu.Unlock()
	counts := make(map[string]int)
	for i := range j.buf {
		counts[j.buf[i].Type]++
	}
	return counts
}

// TraceEvents returns the retained events carrying the trace ID, oldest
// first — one check's slice of the flight recorder.
func (j *Journal) TraceEvents(trace uint64) []Event {
	var out []Event
	for _, e := range j.Snapshot() {
		if e.Trace == trace {
			out = append(out, e)
		}
	}
	return out
}

// Format renders events as aligned text, one line each:
//
//	1723  12:04:05.123456  check_finish   trace=42 node=node-A  verdict=satisfied duration_ns=81250
func (e Event) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%8d  %s  %-16s", e.Seq, e.Time.Format("15:04:05.000000"), e.Type)
	if e.Trace != 0 {
		fmt.Fprintf(&b, " trace=%d", e.Trace)
	}
	if e.Node != "" {
		fmt.Fprintf(&b, " node=%s", e.Node)
	}
	for _, a := range e.Attrs {
		fmt.Fprintf(&b, " %s=%v", a.Key, a.Val)
	}
	return b.String()
}

// FormatEvents renders a slice of events line by line.
func FormatEvents(events []Event) string {
	var b strings.Builder
	for _, e := range events {
		b.WriteString(e.Format())
		b.WriteByte('\n')
	}
	return b.String()
}

// SummarizeEvents tallies events by type and renders an aligned,
// deterministic block — the per-run summary cmd/experiments prints.
func SummarizeEvents(events []Event) string {
	counts := make(map[string]int)
	for _, e := range events {
		counts[e.Type]++
	}
	types := make([]string, 0, len(counts))
	for t := range counts {
		types = append(types, t)
	}
	sort.Strings(types)
	var b strings.Builder
	for _, t := range types {
		fmt.Fprintf(&b, "%-24s %d\n", t, counts[t])
	}
	return b.String()
}

// traceCounter backs NextTraceID. IDs start at 1 so zero always means
// "no trace".
var traceCounter atomic.Uint64

// NextTraceID allocates a process-unique trace/check ID. StartTrace
// calls it for every root span; operations running without a trace
// (production fast paths) call it directly so their journal events are
// still correlatable.
func NextTraceID() uint64 { return traceCounter.Add(1) }
