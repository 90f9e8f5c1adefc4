package sim

import (
	"byzex/internal/faultnet"
	"byzex/internal/ident"
	"byzex/internal/trace"
)

// Held is one receiver's store of plan-delayed frames, keyed by the sending
// phase whose delivery they join. The zero value is ready to use.
type Held struct {
	due map[int][]Envelope
}

// FilterFaults is the single definition of what a fault plan does to
// delivered traffic; the in-memory engine and the TCP peer both call it, so
// core.Config.Faults means the same thing on either substrate.
//
// in is the inbox receiver to collects from sending phase sendPhase, sorted
// by sender. Each sender's contiguous group is one "frame": senders are
// walked in identity order, self and senders crashed at sendPhase are
// passed through untouched, and every other frame gets the plan's verdict —
// drop discards it, delay moves a copy into held for redelivery Delay
// phases later, dup delivers it twice, reorder reverses it. Held frames due
// now are merged in after their sender's current messages (stable sort).
// Exactly one fault-* event per acted-on frame is emitted into sink (nil
// disables tracing), empty frames included — a frame always exists on the
// wire — so trace counters equal Plan.ExpectedCounters.
//
// It returns the filtered inbox and the number of frames withheld (dropped
// or delayed) from live senders. in is returned as-is unless a verdict or a
// held frame changes its content; a nil plan costs one nil check.
func FilterFaults(plan *faultnet.Plan, n, sendPhase int, to ident.ProcID, in []Envelope, held *Held, sink trace.Sink) ([]Envelope, int) {
	if plan == nil {
		return in, 0
	}
	var out []Envelope // nil until a verdict changes the inbox
	withheld, idx := 0, 0
	for s := 0; s < n; s++ {
		from := ident.ProcID(s)
		start := idx
		for idx < len(in) && in[idx].From == from {
			idx++
		}
		var act faultnet.Action
		if from != to && !plan.Crashed(from, sendPhase) {
			act = plan.FrameAction(sendPhase, from, to)
		}
		if act.Kind == faultnet.ActNone {
			if out != nil {
				out = append(out, in[start:idx]...)
			}
			continue
		}
		if sink != nil {
			sink.Emit(trace.Event{Kind: faultKind(act.Kind), Phase: sendPhase, From: from, To: to, Sigs: act.Delay})
		}
		if act.Kind == faultnet.ActDrop || act.Kind == faultnet.ActDelay {
			withheld++
		}
		group := in[start:idx]
		if len(group) == 0 {
			continue
		}
		if out == nil {
			out = append(make([]Envelope, 0, len(in)+len(group)), in[:start]...)
		}
		switch act.Kind {
		case faultnet.ActDelay:
			// Copy: the engine recycles the inbox backing array as the next
			// phase's pending buffer (payloads are never recycled, so value
			// copies suffice).
			if held.due == nil {
				held.due = make(map[int][]Envelope)
			}
			due := sendPhase + act.Delay
			held.due[due] = append(held.due[due], group...)
		case faultnet.ActDup:
			out = append(append(out, group...), group...)
		case faultnet.ActReorder:
			for i := len(group) - 1; i >= 0; i-- {
				out = append(out, group[i])
			}
		}
	}
	if out != nil {
		// Envelopes past idx (none in practice: From is always in [0,n))
		// are preserved untouched.
		out = append(out, in[idx:]...)
	}
	if late := held.due[sendPhase]; len(late) > 0 {
		if out == nil {
			out = append(make([]Envelope, 0, len(in)+len(late)), in...)
		}
		delete(held.due, sendPhase)
		out = append(out, late...)
		sortInbox(out)
	}
	if out == nil {
		return in, withheld
	}
	return out, withheld
}

// faultKind maps a plan action to its trace event kind.
func faultKind(k faultnet.ActionKind) trace.Kind {
	switch k {
	case faultnet.ActDrop:
		return trace.KindFaultDrop
	case faultnet.ActDelay:
		return trace.KindFaultDelay
	case faultnet.ActDup:
		return trace.KindFaultDup
	case faultnet.ActReorder:
		return trace.KindFaultReorder
	}
	return 0
}
