package graph

import (
	"strings"
	"testing"
)

// FuzzParseTrace hardens the trace loader, the graph format's trust
// boundary: arbitrary text must either parse into a valid graph or come
// back as an error, never a panic. Whatever parses must print back to a
// trace that parses to the same print (the Trace → ParseTrace round trip).
func FuzzParseTrace(f *testing.F) {
	g, _ := buildTinyModel()
	f.Add(g.TraceString())
	for _, tc := range malformedTraces {
		f.Add(tc.trace)
	}
	f.Add(header + "param %0 \"w\" shape=[-2x3]\n")
	f.Add(header + "const %0 \"c\" shape=[99999999x99999999]\n")
	f.Add(header + "input %0 \"x\" shape=[2x6]\n%1 = slice_cols(%0) {lo=4 hi=1} # pass=fwd scope=\"\" t=-1 shape=[2x3]\n")
	f.Fuzz(func(t *testing.T, trace string) {
		g, err := ParseTrace(strings.NewReader(trace))
		if err != nil {
			return
		}
		txt := g.TraceString()
		g2, err := ParseTrace(strings.NewReader(txt))
		if err != nil {
			t.Fatalf("printed trace does not parse: %v\n%s", err, txt)
		}
		if again := g2.TraceString(); again != txt {
			t.Fatalf("round trip changed the trace:\n--- first\n%s\n--- second\n%s", txt, again)
		}
	})
}
