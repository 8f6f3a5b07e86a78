// Package jobs is a hotalloc fixture shaped like a job event log: the
// per-event append is hot, reading the log is not.
package jobs

type event struct {
	seq  uint64
	kind uint8
}

type eventLog struct {
	keep int
	ring []event
	last uint64
	wake chan struct{}
}

// appendEvent grows the ring by doubling up to its retention (waived),
// then overwrites in place, and wakes readers by closing a channel.
//
//semsim:hot
func appendEvent(l *eventLog, ev event) {
	if n := len(l.ring); n < l.keep {
		if n == cap(l.ring) {
			grown := make([]event, n, min(max(2*n, 64), l.keep)) //hotalloc:ok the ring doubles up to its retention once, then overwrites in place
			copy(grown, l.ring)
			l.ring = grown
		}
		l.ring = l.ring[:n+1]
		l.ring[n] = ev
	} else {
		l.ring[l.last%uint64(l.keep)] = ev
	}
	l.last++
	if l.wake != nil {
		close(l.wake)
		l.wake = nil
	}
}

// appendSloppy grows without a bound and copies per reader.
//
//semsim:hot
func appendSloppy(l *eventLog, ev event, readers [][]event) {
	l.ring = append(l.ring, ev) // want "append may grow its backing array"
	for i := range readers {
		readers[i] = append(readers[i], ev) // want "append may grow its backing array"
	}
	l.wake = make(chan struct{}) // want "make allocates"
}

// read is the cold reader side: allocation is fine.
func read(l *eventLog) []event {
	if l.wake == nil {
		l.wake = make(chan struct{})
	}
	return append([]event(nil), l.ring...)
}
