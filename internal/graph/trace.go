package graph

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"astra/internal/tensor"
)

// Trace serialises the graph in a textual format modelled on the PyTorch
// trace excerpts in the paper (`%10 = mm(%1, %5)`), extended with shape and
// provenance annotations so it round-trips. cmd/astra-trace dumps it and
// ParseTrace reads it back; it is also a convenient diff surface for tests.
func (g *Graph) Trace(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, "# astra trace v1")
	for _, v := range g.Inputs {
		fmt.Fprintf(bw, "input %s %q shape=%s\n", v, v.Name, shapeStr(v.Shape))
	}
	for _, v := range g.Params {
		fmt.Fprintf(bw, "param %s %q shape=%s\n", v, v.Name, shapeStr(v.Shape))
	}
	for _, v := range g.Values {
		if v.ConstData != nil && v.Producer == nil && !contains(g.Params, v) {
			fmt.Fprintf(bw, "const %s %q shape=%s\n", v, v.Name, shapeStr(v.Shape))
		}
	}
	for _, n := range g.Nodes {
		fmt.Fprintf(bw, "%s = %s(", n.Out, n.Op)
		for i, in := range n.Inputs {
			if i > 0 {
				fmt.Fprint(bw, ", ")
			}
			fmt.Fprint(bw, in)
		}
		fmt.Fprint(bw, ")")
		if attrs := attrString(n); attrs != "" {
			fmt.Fprintf(bw, " {%s}", attrs)
		}
		fmt.Fprintf(bw, " # pass=%s scope=%q t=%d shape=%s\n",
			n.Prov.Pass, n.Prov.Scope, n.Prov.Timestep, shapeStr(n.Out.Shape))
	}
	if g.Loss != nil {
		fmt.Fprintf(bw, "loss %s\n", g.Loss)
	}
	for _, p := range g.Params {
		if gv, ok := g.Grads[p]; ok {
			fmt.Fprintf(bw, "grad %s %s\n", p, gv)
		}
	}
	return bw.Flush()
}

func contains(vs []*Value, v *Value) bool {
	for _, x := range vs {
		if x == v {
			return true
		}
	}
	return false
}

func shapeStr(s tensor.Shape) string {
	parts := make([]string, len(s))
	for i, d := range s {
		parts[i] = strconv.Itoa(d)
	}
	return "[" + strings.Join(parts, "x") + "]"
}

func parseShape(s string) (tensor.Shape, error) {
	s = strings.TrimPrefix(strings.TrimSuffix(s, "]"), "[")
	if s == "" {
		return tensor.Shape{}, nil
	}
	parts := strings.Split(s, "x")
	out := make(tensor.Shape, len(parts))
	elems := 1
	for i, p := range parts {
		d, err := strconv.Atoi(p)
		if err != nil || d < 0 {
			return nil, fmt.Errorf("graph: bad shape dim %q", p)
		}
		if d > 0 && elems > maxTraceElems/d {
			return nil, fmt.Errorf("graph: shape [%s] exceeds %d elements", s, maxTraceElems)
		}
		elems *= d
		out[i] = d
	}
	return out, nil
}

// maxTraceElems bounds one traced tensor (512 MiB of float64; the zoo's
// largest at batch 64 has 22M elements): parameters and constants are
// re-created zero-filled on parse, so a shape must not demand unbounded
// memory.
const maxTraceElems = 1 << 26

func attrString(n *Node) string {
	switch n.Op {
	case OpScale:
		return fmt.Sprintf("s=%g", n.Attr.Scalar)
	case OpSliceCols, OpSliceRows:
		return fmt.Sprintf("lo=%d hi=%d", n.Attr.Lo, n.Attr.Hi)
	case OpLookupGrad, OpBroadcastRows, OpBroadcastCols:
		return fmt.Sprintf("n=%d", n.Attr.N)
	case OpPadCols, OpPadRows:
		return fmt.Sprintf("lo=%d n=%d", n.Attr.Lo, n.Attr.N)
	}
	return ""
}

// TraceString renders the trace to a string.
func (g *Graph) TraceString() string {
	var b strings.Builder
	if err := g.Trace(&b); err != nil {
		panic(err) // strings.Builder never errors
	}
	return b.String()
}

// ParseTrace reconstructs a graph from the textual trace format. Parameter
// and constant tensors are re-created zero-filled (the trace carries shapes,
// not weights); callers that need values must rebind them.
func ParseTrace(r io.Reader) (*Graph, error) {
	g := New()
	byID := make(map[int]*Value)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fail := func(msg string) error { return fmt.Errorf("graph: trace line %d: %s", lineNo, msg) }
		switch {
		case strings.HasPrefix(line, "input "), strings.HasPrefix(line, "param "), strings.HasPrefix(line, "const "):
			kind := line[:5]
			rest := strings.TrimSpace(line[6:])
			fields := splitLeafFields(rest)
			if len(fields) != 3 {
				return nil, fail("malformed leaf declaration")
			}
			id, err := parseValueRef(fields[0])
			if err != nil {
				return nil, fail(err.Error())
			}
			name, err := strconv.Unquote(fields[1])
			if err != nil {
				return nil, fail("bad name: " + err.Error())
			}
			shape, err := parseShape(strings.TrimPrefix(fields[2], "shape="))
			if err != nil {
				return nil, fail(err.Error())
			}
			if byID[id] != nil {
				return nil, fail(fmt.Sprintf("value %%%d redefined", id))
			}
			v := g.addValueWithID(id, shape, name)
			byID[id] = v
			switch kind {
			case "input":
				g.Inputs = append(g.Inputs, v)
			case "param":
				v.ConstData = tensor.New(shape...)
				g.Params = append(g.Params, v)
			case "const":
				v.ConstData = tensor.New(shape...)
			}
		case strings.HasPrefix(line, "loss "):
			id, err := parseValueRef(strings.TrimSpace(line[5:]))
			if err != nil {
				return nil, fail(err.Error())
			}
			if byID[id] == nil {
				return nil, fail(fmt.Sprintf("loss references undefined %%%d", id))
			}
			g.Loss = byID[id]
		case strings.HasPrefix(line, "grad "):
			fields := strings.Fields(line[5:])
			if len(fields) != 2 {
				return nil, fail("malformed grad line")
			}
			pid, err1 := parseValueRef(fields[0])
			gid, err2 := parseValueRef(fields[1])
			if err1 != nil || err2 != nil {
				return nil, fail("bad grad refs")
			}
			if byID[pid] == nil || byID[gid] == nil {
				return nil, fail("grad references undefined value")
			}
			g.Grads[byID[pid]] = byID[gid]
		case strings.HasPrefix(line, "%"):
			if err := parseNodeLine(g, byID, line); err != nil {
				return nil, fail(err.Error())
			}
		default:
			return nil, fail("unrecognised line")
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return g, g.Validate()
}

// splitLeafFields splits `%0 "name with spaces" shape=[2x3]` into 3 fields,
// respecting the quoted name.
func splitLeafFields(s string) []string {
	var out []string
	s = strings.TrimSpace(s)
	// value ref
	i := strings.IndexByte(s, ' ')
	if i < 0 {
		return []string{s}
	}
	out = append(out, s[:i])
	s = strings.TrimSpace(s[i:])
	// quoted name
	if strings.HasPrefix(s, "\"") {
		j := 1
		for j < len(s) && (s[j] != '"' || s[j-1] == '\\') {
			j++
		}
		if j < len(s) {
			out = append(out, s[:j+1])
			s = strings.TrimSpace(s[j+1:])
		}
	}
	if s != "" {
		out = append(out, s)
	}
	return out
}

func parseValueRef(s string) (int, error) {
	if !strings.HasPrefix(s, "%") {
		return 0, fmt.Errorf("bad value ref %q", s)
	}
	return strconv.Atoi(s[1:])
}

func parseNodeLine(g *Graph, byID map[int]*Value, line string) error {
	// Strip the provenance comment.
	prov := Provenance{Timestep: -1}
	if i := strings.Index(line, " # "); i >= 0 {
		comment := line[i+3:]
		line = line[:i]
		for _, f := range splitCommentFields(comment) {
			switch {
			case strings.HasPrefix(f, "pass="):
				if strings.TrimPrefix(f, "pass=") == "bwd" {
					prov.Pass = Backward
				}
			case strings.HasPrefix(f, "scope="):
				s, err := strconv.Unquote(strings.TrimPrefix(f, "scope="))
				if err != nil {
					return fmt.Errorf("bad scope: %v", err)
				}
				prov.Scope = s
			case strings.HasPrefix(f, "t="):
				t, err := strconv.Atoi(strings.TrimPrefix(f, "t="))
				if err != nil {
					return fmt.Errorf("bad timestep: %v", err)
				}
				prov.Timestep = t
			}
		}
	}
	// Optional attrs in braces.
	var attr Attr
	if i := strings.Index(line, " {"); i >= 0 {
		j := strings.Index(line, "}")
		if j < i {
			return fmt.Errorf("unterminated attr block")
		}
		for _, f := range strings.Fields(line[i+2 : j]) {
			kv := strings.SplitN(f, "=", 2)
			if len(kv) != 2 {
				return fmt.Errorf("bad attr %q", f)
			}
			switch kv[0] {
			case "s":
				v, err := strconv.ParseFloat(kv[1], 64)
				if err != nil {
					return err
				}
				attr.Scalar = v
			case "lo":
				v, err := strconv.Atoi(kv[1])
				if err != nil {
					return err
				}
				attr.Lo = v
			case "hi":
				v, err := strconv.Atoi(kv[1])
				if err != nil {
					return err
				}
				attr.Hi = v
			case "n":
				v, err := strconv.Atoi(kv[1])
				if err != nil {
					return err
				}
				attr.N = v
			}
		}
		line = line[:i]
	}
	eq := strings.Index(line, " = ")
	if eq < 0 {
		return fmt.Errorf("missing '='")
	}
	outID, err := parseValueRef(strings.TrimSpace(line[:eq]))
	if err != nil {
		return err
	}
	rhs := strings.TrimSpace(line[eq+3:])
	open := strings.IndexByte(rhs, '(')
	if open < 0 || !strings.HasSuffix(rhs, ")") {
		return fmt.Errorf("malformed rhs %q", rhs)
	}
	op, ok := OpFromString(rhs[:open])
	if !ok {
		return fmt.Errorf("unknown op %q", rhs[:open])
	}
	var inputs []*Value
	argStr := strings.TrimSpace(rhs[open+1 : len(rhs)-1])
	if argStr != "" {
		for _, a := range strings.Split(argStr, ",") {
			id, err := parseValueRef(strings.TrimSpace(a))
			if err != nil {
				return err
			}
			v, ok := byID[id]
			if !ok {
				return fmt.Errorf("use of undefined %%%d", id)
			}
			inputs = append(inputs, v)
		}
	}
	if byID[outID] != nil {
		return fmt.Errorf("value %%%d redefined", outID)
	}
	out, err := g.addNodeWithOutID(outID, op, prov, attr, inputs...)
	if err != nil {
		return err
	}
	byID[outID] = out
	return nil
}

// splitCommentFields splits the provenance comment respecting the quoted
// scope string.
func splitCommentFields(s string) []string {
	var out []string
	for s != "" {
		s = strings.TrimSpace(s)
		if s == "" {
			break
		}
		if strings.HasPrefix(s, "scope=\"") {
			j := len("scope=\"")
			for j < len(s) && (s[j] != '"' || s[j-1] == '\\') {
				j++
			}
			if j < len(s) {
				out = append(out, s[:j+1])
				s = s[j+1:]
				continue
			}
		}
		i := strings.IndexByte(s, ' ')
		if i < 0 {
			out = append(out, s)
			break
		}
		out = append(out, s[:i])
		s = s[i:]
	}
	return out
}
