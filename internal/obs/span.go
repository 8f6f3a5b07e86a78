package obs

// Span is an in-flight phase timing started by Observer.Span. It is a
// value (no allocation); End records the duration into the span's
// nanosecond histogram and, when tracing, the journal. The zero Span
// (from a nil Observer) no-ops on End.
type Span struct {
	o     *Observer
	hist  *Histogram
	id    int32
	start int64
	sim   float64
}

// Span starts timing a named phase at simulated time simT (pass 0 for
// phases outside a simulation, e.g. a sweep or a master solve). The
// duration histogram is registered as "span.<name>.ns". Nil-safe: on a
// disabled observer no clock is read and End is free.
func (o *Observer) Span(name string, simT float64) Span {
	if o == nil {
		return Span{}
	}
	sp := Span{o: o, start: o.wall(), sim: simT, id: -1}
	sp.hist = o.reg.Histogram("span."+name+".ns", spanBuckets)
	if o.journal != nil {
		sp.id = o.journal.internName(name)
	}
	return sp
}

// spanBuckets spans 1 us .. ~17 min in powers of four.
var spanBuckets = ExpBuckets(1e3, 4, 16)

// End completes the span.
func (sp Span) End() {
	if sp.o == nil {
		return
	}
	end := sp.o.wall()
	dur := end - sp.start
	sp.hist.Observe(float64(dur))
	if j := sp.o.journal; j != nil {
		j.Record(Event{Kind: KindSpan, Junc: sp.id, Sim: sp.sim, Wall: sp.start, Dur: dur})
	}
}

// GlobalSpan starts a span on the process-wide observer — the one-line
// instrumentation hook for phases outside the solver (master solves,
// sweep families, benchmark drivers):
//
//	defer obs.GlobalSpan("master.solve").End()
//
// With no global observer installed it is free.
func GlobalSpan(name string) Span { return Global().Span(name, 0) }
