// Package obs is a hotalloc fixture shaped like a bounded publish
// ring: the per-event publish is hot, the subscription setup is not.
package obs

type busEvent struct {
	seq  uint64
	data string
}

type topic struct {
	ring  []busEvent
	start int
	n     int
}

// publish is the per-event path: the ring grows once up to its cap
// (waived) and otherwise overwrites in place.
//
//semsim:hot
func publish(t *topic, capacity int, ev busEvent) {
	if t.n < capacity {
		t.ring = append(t.ring, ev) //hotalloc:ok the ring grows once up to its cap, then overwrites in place
		t.n++
	} else {
		t.ring[t.start] = ev
		t.start = (t.start + 1) % capacity
	}
}

// publishSloppy grows its backing array on every event.
//
//semsim:hot
func publishSloppy(t *topic, ev busEvent) {
	t.ring = append(t.ring, ev) // want "append may grow its backing array"
}

// subscribe is cold setup: allocation is fine.
func subscribe(capacity int) *topic {
	return &topic{ring: make([]busEvent, 0, capacity)}
}
