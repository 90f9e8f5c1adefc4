package sim_test

import (
	"fmt"
	"strings"
	"testing"

	"byzex/internal/faultnet"
	"byzex/internal/ident"
	"byzex/internal/sim"
	"byzex/internal/trace"
)

// inbox builds a sender-sorted inbox for receiver to from "from:tag" items.
func inbox(to ident.ProcID, sendPhase int, items ...string) []sim.Envelope {
	var out []sim.Envelope
	for _, it := range items {
		var from int
		var tag string
		if _, err := fmt.Sscanf(it, "%d:%s", &from, &tag); err != nil {
			panic(it)
		}
		out = append(out, sim.Envelope{From: ident.ProcID(from), To: to, Phase: sendPhase, Payload: []byte(tag)})
	}
	return out
}

func tags(in []sim.Envelope) string {
	parts := make([]string, len(in))
	for i, e := range in {
		parts[i] = fmt.Sprintf("%d:%s", e.From, e.Payload)
	}
	return strings.Join(parts, " ")
}

func faultEvents(events []trace.Event) string {
	parts := make([]string, len(events))
	for i, e := range events {
		parts[i] = fmt.Sprintf("%s %d->%d@%d", e.Kind, e.From, e.To, e.Phase)
		if e.Kind == trace.KindFaultDelay {
			parts[i] += fmt.Sprintf("+%d", e.Sigs)
		}
	}
	return strings.Join(parts, " ")
}

// TestFilterFaults drives the shared fault-delivery filter phase by phase
// for one receiver: drop and delay withhold a frame (and count towards the
// withheld gap), dup doubles it, reorder reverses it, held frames merge in
// after their sender's current traffic, and one fault-* event per acted-on
// frame is emitted in sender order — empty frames included, crashed senders
// and self excluded.
func TestFilterFaults(t *testing.T) {
	type step struct {
		sendPhase    int
		in           []string
		want         string
		wantEvents   string
		wantWithheld int
	}
	cases := []struct {
		name  string
		spec  string
		n     int
		to    ident.ProcID
		steps []step
	}{
		{
			name: "transforms and held merge",
			spec: "drop=1->0@1;delay=2->0@1+1;dup=1->0@2;reorder=2->0@2", n: 4, to: 0,
			steps: []step{
				{1, []string{"1:dropped", "2:held", "3:clean"}, "3:clean",
					"fault-drop 1->0@1 fault-delay 2->0@1+1", 2},
				{2, []string{"1:twice", "2:b", "2:a"}, "1:twice 1:twice 2:a 2:b 2:held",
					"fault-dup 1->0@2 fault-reorder 2->0@2", 0},
				{3, []string{"1:x", "2:y"}, "1:x 2:y", "", 0},
			},
		},
		{
			// The withheld count is the receiver's per-phase information gap
			// from the plan: a crashed sender is physically absent, not
			// withheld, and empty frames still carry a verdict.
			name: "withheld excludes crashed senders",
			spec: "crash=3@2;drop=0->2@1-2;delay=1->2@2+1", n: 4, to: 2,
			steps: []step{
				{1, []string{"0:a", "1:b", "3:c"}, "1:b 3:c", "fault-drop 0->2@1", 1},
				{2, nil, "", "fault-drop 0->2@2 fault-delay 1->2@2+1", 2},
			},
		},
		{
			name: "no verdict for this receiver",
			spec: "crash=3@2;drop=0->2@1-2;delay=1->2@2+1", n: 4, to: 0,
			steps: []step{
				{1, []string{"1:a", "2:b", "3:c"}, "1:a 2:b 3:c", "", 0},
			},
		},
		{
			name: "delay into a later phase keeps sender order",
			spec: "delay=0->3@1+2;dup=2->3@3", n: 4, to: 3,
			steps: []step{
				{1, []string{"0:early", "1:p1"}, "1:p1", "fault-delay 0->3@1+2", 1},
				{2, []string{"0:mid"}, "0:mid", "", 0},
				{3, []string{"0:now", "2:d"}, "0:now 0:early 2:d 2:d", "fault-dup 2->3@3", 0},
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			plan := faultnet.MustParse(tc.spec, 7)
			var held sim.Held
			for _, st := range tc.steps {
				buf := trace.NewBuffer()
				in := inbox(tc.to, st.sendPhase, st.in...)
				out, withheld := sim.FilterFaults(plan, tc.n, st.sendPhase, tc.to, in, &held, buf)
				if got := tags(out); got != st.want {
					t.Errorf("send phase %d: inbox %q, want %q", st.sendPhase, got, st.want)
				}
				if got := faultEvents(buf.Events()); got != st.wantEvents {
					t.Errorf("send phase %d: events %q, want %q", st.sendPhase, got, st.wantEvents)
				}
				if withheld != st.wantWithheld {
					t.Errorf("send phase %d: withheld %d, want %d", st.sendPhase, withheld, st.wantWithheld)
				}
			}
		})
	}
}

// TestFilterFaultsPassThrough pins the cheap paths: a nil plan and a plan
// with no verdict for the receiver hand back the caller's inbox itself, and
// a nil sink emits nothing but still filters.
func TestFilterFaultsPassThrough(t *testing.T) {
	in := inbox(0, 1, "1:a", "2:b")
	var held sim.Held
	if out, w := sim.FilterFaults(nil, 3, 1, 0, in, &held, nil); &out[0] != &in[0] || w != 0 {
		t.Fatalf("nil plan: copied inbox or withheld %d", w)
	}
	plan := faultnet.MustParse("drop=1->2@1", 1)
	if out, w := sim.FilterFaults(plan, 3, 1, 0, in, &held, nil); &out[0] != &in[0] || w != 0 {
		t.Fatalf("verdict-free receiver: copied inbox or withheld %d", w)
	}
	plan = faultnet.MustParse("drop=1->0@1", 1)
	out, w := sim.FilterFaults(plan, 3, 1, 0, in, &held, nil)
	if tags(out) != "2:b" || w != 1 || tags(in) != "1:a 2:b" {
		t.Fatalf("drop with nil sink: out %q withheld %d, input now %q", tags(out), w, tags(in))
	}
}
