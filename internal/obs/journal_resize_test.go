package obs

import (
	"sync/atomic"
	"testing"
	"time"
)

func TestJournalResize(t *testing.T) {
	j := NewJournal(8)
	for i := 0; i < 12; i++ {
		j.Append("ev", uint64(i+1), "")
	}
	if j.Len() != 8 || j.TotalAppended() != 12 {
		t.Fatalf("len=%d total=%d", j.Len(), j.TotalAppended())
	}

	// Shrink: only the newest events that fit survive; sequence numbers
	// and the total are untouched.
	j.Resize(4)
	if j.Capacity() != 4 || j.Len() != 4 {
		t.Fatalf("after shrink: cap=%d len=%d", j.Capacity(), j.Len())
	}
	snap := j.Snapshot()
	if snap[0].Seq != 8 || snap[3].Seq != 11 {
		t.Fatalf("shrink kept seqs %d..%d, want 8..11", snap[0].Seq, snap[3].Seq)
	}
	if j.TotalAppended() != 12 {
		t.Fatalf("total after shrink = %d", j.TotalAppended())
	}

	// Grow: existing events stay, new ones fill the extra room, seqs
	// keep counting from where they were.
	j.Resize(16)
	j.Append("ev", 99, "")
	if j.Len() != 5 || j.Snapshot()[4].Seq != 12 {
		t.Fatalf("after grow: len=%d lastSeq=%d", j.Len(), j.Snapshot()[4].Seq)
	}

	// Resize to zero disables and clears; a positive resize re-enables.
	j.Resize(0)
	j.Append("ev", 1, "")
	if j.Len() != 0 || j.Enabled() {
		t.Fatalf("disabled journal recorded: len=%d enabled=%v", j.Len(), j.Enabled())
	}
	j.Resize(2)
	j.Append("ev", 1, "")
	if !j.Enabled() || j.Len() != 1 {
		t.Fatalf("re-enabled journal: len=%d enabled=%v", j.Len(), j.Enabled())
	}
}

func TestJournalResizePreservesOrderAcrossWrap(t *testing.T) {
	j := NewJournal(4)
	for i := 0; i < 7; i++ { // start pointer mid-ring
		j.Append("ev", uint64(i), "")
	}
	j.Resize(8)
	snap := j.Snapshot()
	for i := 1; i < len(snap); i++ {
		if snap[i].Seq != snap[i-1].Seq+1 {
			t.Fatalf("order broken after resize: %+v", snap)
		}
	}
}

// TestJournalCapacityDuringResize reads Capacity while Resize and
// Append replace the ring; run under -race it pins that the read takes
// the journal's lock.
func TestJournalCapacityDuringResize(t *testing.T) {
	j := NewJournal(8)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			j.Resize(4 + i%8)
			j.Append("ev", uint64(i+1), "")
		}
	}()
	for {
		select {
		case <-done:
			if c := j.Capacity(); c != 4+199%8 {
				t.Fatalf("capacity after the last resize = %d, want %d", c, 4+199%8)
			}
			return
		default:
			if c := j.Capacity(); c < 4 || c > 11 {
				t.Fatalf("capacity %d outside the resized range [4, 11]", c)
			}
		}
	}
}

func TestJournalOnDrop(t *testing.T) {
	j := NewJournal(3)
	var drops atomic.Int64
	j.SetOnDrop(func() { drops.Add(1) })
	for i := 0; i < 5; i++ {
		j.Append("ev", 0, "")
	}
	if got := drops.Load(); got != 2 {
		t.Fatalf("drop hook fired %d times, want 2", got)
	}
	// The default journal feeds the windowed drop counter the
	// journal-drops SLO reads.
	if DefaultJournal.Capacity() > 0 {
		before := DefaultWindows.Counter(MetricJournalDropped, "").Value()
		if before < 0 {
			t.Fatal("drop counter unregistered")
		}
	}
}

func TestExemplarDurationFloor(t *testing.T) {
	s := NewExemplarStore(4, 4)
	s.SetDurationFloor(10 * time.Millisecond)
	if got := s.Threshold(); got != 10*time.Millisecond {
		t.Fatalf("threshold = %v", got)
	}
	s.Offer(Exemplar{Name: "fast", Duration: int64(time.Millisecond)})
	s.Offer(Exemplar{Name: "slow", Duration: int64(20 * time.Millisecond)})
	slow := s.Slowest()
	if len(slow) != 1 || slow[0].Name != "slow" {
		t.Fatalf("slow list = %+v, want only the over-floor check", slow)
	}
	// Undecided checks bypass the floor: they are always retained.
	s.Offer(Exemplar{Name: "und", Verdict: VerdictUndecided, Duration: 1})
	if got := s.Undecided(); len(got) != 1 {
		t.Fatalf("undecided = %+v", got)
	}
	// The floor is runtime-adjustable; clearing it re-admits fast checks
	// (until the list fills and the dynamic tail floor takes over).
	s.SetDurationFloor(0)
	s.Offer(Exemplar{Name: "fast2", Duration: int64(2 * time.Millisecond)})
	found := false
	for _, e := range s.Slowest() {
		found = found || e.Name == "fast2"
	}
	if !found {
		t.Fatalf("fast2 not admitted after clearing the floor: %+v", s.Slowest())
	}
	s.SetDurationFloor(-time.Second) // negative clamps to zero
	if got := s.Threshold(); got != 0 {
		t.Fatalf("negative floor = %v", got)
	}
}

func TestExemplarDynamicFloorStillWins(t *testing.T) {
	s := NewExemplarStore(2, 2)
	s.SetDurationFloor(5)
	s.Offer(Exemplar{Name: "a", Duration: 100})
	s.Offer(Exemplar{Name: "b", Duration: 200})
	// List is full with tail 100: the effective floor is max(100, 5).
	if got := s.Threshold(); got != 100 {
		t.Fatalf("threshold = %v, want the dynamic tail floor 100", got)
	}
	s.Offer(Exemplar{Name: "c", Duration: 50})
	if got := s.Slowest(); len(got) != 2 || got[1].Name != "a" {
		t.Fatalf("slow list = %+v", got)
	}
}
