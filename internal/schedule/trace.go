package schedule

import "sort"

// Message traces: the network activity implied by a schedule, for reports,
// debugging and visualisation.

// Message is one inter-processor transfer of an evaluated schedule.
type Message struct {
	// Src and Dst are the communicating tasks.
	Src, Dst int
	// Weight is the clustered edge weight.
	Weight int
	// FromProc and ToProc are the endpoints' processors.
	FromProc, ToProc int
	// Distance is the shortest-path hop (or weighted) distance travelled.
	Distance int
	// Departure is the moment the message leaves (the source's end time)
	// and Arrival the moment it is fully delivered under the paper's
	// dataflow model: Departure + Weight×Distance.
	Departure, Arrival int
}

// Trace lists every inter-processor message of assignment a under the
// dataflow schedule res, sorted by departure time (ties: source, then
// destination task ID). Intra-processor precedences carry no message.
func (e *Evaluator) Trace(a *Assignment, res *Result) []Message {
	var msgs []Message
	for id, arc := range e.view.Arcs() {
		w := e.CEdge(id)
		if w == 0 {
			continue
		}
		j, i := arc.From, arc.To
		pj := a.ProcOf[e.Clus.Of[j]]
		pi := a.ProcOf[e.Clus.Of[i]]
		if pj == pi {
			continue
		}
		d := e.Dist.At(pj, pi)
		msgs = append(msgs, Message{
			Src: j, Dst: i, Weight: w,
			FromProc: pj, ToProc: pi, Distance: d,
			Departure: res.End[j],
			Arrival:   res.End[j] + w*d,
		})
	}
	sort.Slice(msgs, func(x, y int) bool {
		if msgs[x].Departure != msgs[y].Departure {
			return msgs[x].Departure < msgs[y].Departure
		}
		if msgs[x].Src != msgs[y].Src {
			return msgs[x].Src < msgs[y].Src
		}
		return msgs[x].Dst < msgs[y].Dst
	})
	return msgs
}

// TraceStats summarises a trace.
type TraceStats struct {
	// Messages is the transfer count.
	Messages int
	// Volume is Σ weight×distance.
	Volume int
	// PeakInFlight is the maximum number of messages simultaneously in
	// the network (dataflow model: between departure and arrival).
	PeakInFlight int
}

// Stats computes summary statistics of a trace.
func Stats(msgs []Message) TraceStats {
	st := TraceStats{Messages: len(msgs)}
	type event struct{ t, delta int }
	var events []event
	for _, m := range msgs {
		st.Volume += m.Weight * m.Distance
		events = append(events, event{m.Departure, 1}, event{m.Arrival, -1})
	}
	sort.Slice(events, func(i, j int) bool {
		if events[i].t != events[j].t {
			return events[i].t < events[j].t
		}
		// Arrivals before departures at the same instant: a link handed
		// over within one time unit does not double-count.
		return events[i].delta < events[j].delta
	})
	cur := 0
	for _, ev := range events {
		cur += ev.delta
		if cur > st.PeakInFlight {
			st.PeakInFlight = cur
		}
	}
	return st
}
