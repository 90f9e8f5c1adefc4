package faultnet

import "testing"

// FuzzParseSpec checks that arbitrary spec text never panics the parser or
// the compiler, and that every spec both accept survives a FormatSpec round
// trip into a plan with the identical schedule (equal Digest) — the property
// archived search results and journaled fault plans rely on.
func FuzzParseSpec(f *testing.F) {
	for _, s := range []string{
		// The transport scenario matrix.
		"crash=1@2;crash=2@3",
		"drop=1->3@2-3;dup=1->4@1;drop=2->*@2/0.6",
		"partition=1,2|3,4@2",
		"delay=1->*@1-2+1;reorder=2->*@*",
		// The benchmark's Algorithm 2 fault plans.
		"crash=1@2;drop=2->*@2-6/0.5;dup=3->*@1-8;delay=4->*@1-4+1",
		"crash=1@2;drop=2->*@2-20/0.5;dup=3->*@1-30;delay=4->*@1-10+1;reorder=5->*@*",
		// Processor ids beyond ProcID's range.
		"drop=4294967297->0@1",
		"drop=4294967295->2@1",
		"crash=4294967297@2",
		"partition=4294967297|2@1",
	} {
		f.Add(s, int64(42))
	}

	f.Fuzz(func(t *testing.T, s string, seed int64) {
		spec, err := ParseSpec(s)
		if err != nil {
			return
		}
		plan, err := Compile(spec, seed)
		if err != nil {
			return
		}
		text := FormatSpec(spec)
		again, err := ParseSpec(text)
		if err != nil {
			t.Fatalf("%q formats as %q, which does not parse: %v", s, text, err)
		}
		replan, err := Compile(again, seed)
		if err != nil {
			t.Fatalf("%q formats as %q, which does not compile: %v", s, text, err)
		}
		if plan.Digest() != replan.Digest() {
			t.Fatalf("%q formats as %q with a different schedule: digest %x != %x", s, text, plan.Digest(), replan.Digest())
		}
	})
}
