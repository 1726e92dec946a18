package graph

import (
	"strings"
	"testing"
)

const header = "# astra trace v1\n"

// malformedTraces are structurally broken traces; FuzzParseTrace seeds
// from them too.
var malformedTraces = []struct {
	name  string
	trace string
	want  string // substring expected in the error
}{
	{
		name: "self-cycle",
		trace: header +
			"input %0 \"x\" shape=[2x2]\n" +
			"%1 = add(%1, %0) # pass=fwd scope=\"\" t=-1 shape=[2x2]\n",
		want: "undefined",
	},
	{
		name: "forward-reference-cycle",
		trace: header +
			"input %0 \"x\" shape=[2x2]\n" +
			"%1 = add(%2, %0) # pass=fwd scope=\"\" t=-1 shape=[2x2]\n" +
			"%2 = add(%1, %0) # pass=fwd scope=\"\" t=-1 shape=[2x2]\n",
		want: "undefined",
	},
	{
		name: "double-defined-node",
		trace: header +
			"input %0 \"x\" shape=[2x2]\n" +
			"%1 = relu(%0) # pass=fwd scope=\"\" t=-1 shape=[2x2]\n" +
			"%1 = tanh(%0) # pass=fwd scope=\"\" t=-1 shape=[2x2]\n",
		want: "redefined",
	},
	{
		name: "double-defined-leaf",
		trace: header +
			"input %0 \"x\" shape=[2x2]\n" +
			"param %0 \"w\" shape=[2x2]\n",
		want: "redefined",
	},
	{
		name: "shape-mismatch",
		trace: header +
			"input %0 \"x\" shape=[2x3]\n" +
			"param %1 \"w\" shape=[4x5]\n" +
			"%2 = mm(%0, %1) # pass=fwd scope=\"\" t=-1 shape=[2x5]\n",
		want: "mm",
	},
	{
		name: "bad-arity",
		trace: header +
			"input %0 \"x\" shape=[2x2]\n" +
			"%1 = mm(%0) # pass=fwd scope=\"\" t=-1 shape=[2x2]\n",
		want: "",
	},
	{
		name: "loss-undefined",
		trace: header +
			"input %0 \"x\" shape=[2x2]\n" +
			"loss %7\n",
		want: "undefined",
	},
	{
		name: "grad-undefined",
		trace: header +
			"param %0 \"w\" shape=[2x2]\n" +
			"grad %0 %9\n",
		want: "undefined",
	},
	{
		name: "unknown-op",
		trace: header +
			"input %0 \"x\" shape=[2x2]\n" +
			"%1 = frobnicate(%0) # pass=fwd scope=\"\" t=-1 shape=[2x2]\n",
		want: "unknown op",
	},
}

// TestParseTraceRejectsMalformedGraphs exercises the loader's negative
// paths: structurally broken traces must come back as errors, never as
// panics or silently-wrong graphs. This mirrors the FuzzIndexLoad
// convention for the profile index — hostile input is a return value, not
// a crash.
func TestParseTraceRejectsMalformedGraphs(t *testing.T) {
	for _, tc := range malformedTraces {
		t.Run(tc.name, func(t *testing.T) {
			g, err := ParseTrace(strings.NewReader(tc.trace))
			if err == nil {
				t.Fatalf("ParseTrace accepted a malformed trace (graph: %v)", g)
			}
			if tc.want != "" && !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}
