package telemetry

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// Family is one parsed metric family of an exposition document.
type Family struct {
	Name string
	Help string
	Type string // counter | gauge | histogram
	// Samples are the family's raw samples in document order. For a
	// histogram they include the _bucket/_sum/_count series.
	Samples []Sample
}

// Sample is one parsed sample line.
type Sample struct {
	// Name is the full sample name (may carry a _bucket/_sum/_count
	// suffix for histogram families).
	Name   string
	Labels map[string]string
	Value  float64
}

// Families is a parsed exposition document keyed by family name.
type Families map[string]*Family

// ParseExposition is the strict Prometheus text-format parser used by
// the unit tests, the chaos soak's invariant checks, gntbench, and the
// CI scrape smoke. It rejects what a lenient scraper would shrug off:
//
//   - a family declared (TYPE) more than once, or samples for a family
//     that was never declared;
//   - samples interleaved across family blocks;
//   - duplicate series (same sample name and label set);
//   - malformed names, label syntax, escapes, or values;
//   - histogram _bucket series without an le label;
//   - timestamps (this codebase never emits them).
func ParseExposition(r io.Reader) (Families, error) {
	fams := Families{}
	var cur *Family
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	seen := map[string]bool{}     // series dedup: name + sorted labels
	declared := map[string]bool{} // family blocks already closed
	lineno := 0
	for sc.Scan() {
		lineno++
		line := sc.Text()
		fail := func(format string, args ...any) (Families, error) {
			return nil, fmt.Errorf("line %d: %s (%q)", lineno, fmt.Sprintf(format, args...), line)
		}
		if strings.TrimSpace(line) == "" {
			continue
		}
		if strings.HasPrefix(line, "# HELP ") {
			rest := line[len("# HELP "):]
			name, help, _ := strings.Cut(rest, " ")
			if !nameRe.MatchString(name) {
				return fail("HELP with invalid metric name %q", name)
			}
			if f, ok := fams[name]; ok && f.Help != "" {
				return fail("duplicate HELP for %q", name)
			}
			if fams[name] == nil {
				fams[name] = &Family{Name: name}
			}
			fams[name].Help = help
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			parts := strings.Fields(line[len("# TYPE "):])
			if len(parts) != 2 {
				return fail("malformed TYPE line")
			}
			name, typ := parts[0], parts[1]
			if !nameRe.MatchString(name) {
				return fail("TYPE with invalid metric name %q", name)
			}
			switch typ {
			case "counter", "gauge", "histogram", "summary", "untyped":
			default:
				return fail("unknown metric type %q", typ)
			}
			if f, ok := fams[name]; ok && f.Type != "" {
				return fail("duplicate TYPE for %q", name)
			}
			if declared[name] {
				return fail("family %q re-opened after its block closed", name)
			}
			if fams[name] == nil {
				fams[name] = &Family{Name: name}
			}
			fams[name].Type = typ
			if cur != nil && cur != fams[name] {
				declared[cur.Name] = true
			}
			cur = fams[name]
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue // other comments are legal and ignored
		}

		s, err := parseSample(line)
		if err != nil {
			return fail("%v", err)
		}
		famName := familyOf(s.Name)
		f, ok := fams[famName]
		if !ok || f.Type == "" {
			return fail("sample %q without a preceding TYPE declaration", s.Name)
		}
		if f != cur {
			return fail("sample %q outside its family block (interleaved families)", s.Name)
		}
		if f.Type == "histogram" && strings.HasSuffix(s.Name, "_bucket") {
			if _, ok := s.Labels["le"]; !ok {
				return fail("histogram bucket without le label")
			}
		}
		key := seriesKey(s)
		if seen[key] {
			return fail("duplicate series %s", key)
		}
		seen[key] = true
		f.Samples = append(f.Samples, s)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return fams, nil
}

// familyOf strips the histogram sample suffixes off a sample name.
func familyOf(name string) string {
	for _, suf := range []string{"_bucket", "_sum", "_count"} {
		if strings.HasSuffix(name, suf) {
			return name[:len(name)-len(suf)]
		}
	}
	return name
}

func seriesKey(s Sample) string {
	keys := make([]string, 0, len(s.Labels))
	for k := range s.Labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteString(s.Name)
	for _, k := range keys {
		fmt.Fprintf(&b, "{%s=%q}", k, s.Labels[k])
	}
	return b.String()
}

// parseSample parses `name{k="v",...} value` with strict escaping and
// no trailing tokens (timestamps are rejected).
func parseSample(line string) (Sample, error) {
	s := Sample{Labels: map[string]string{}}
	i := 0
	for i < len(line) && isNameChar(line[i], i == 0) {
		i++
	}
	if i == 0 {
		return s, fmt.Errorf("sample does not start with a metric name")
	}
	s.Name = line[:i]
	if i < len(line) && line[i] == '{' {
		i++
		for {
			if i >= len(line) {
				return s, fmt.Errorf("unterminated label set")
			}
			if line[i] == '}' {
				i++
				break
			}
			j := i
			for j < len(line) && line[j] != '=' {
				j++
			}
			if j >= len(line) {
				return s, fmt.Errorf("label without '='")
			}
			lname := line[i:j]
			if !labelRe.MatchString(lname) {
				return s, fmt.Errorf("invalid label name %q", lname)
			}
			if _, dup := s.Labels[lname]; dup {
				return s, fmt.Errorf("duplicate label %q", lname)
			}
			i = j + 1
			if i >= len(line) || line[i] != '"' {
				return s, fmt.Errorf("label value of %q not quoted", lname)
			}
			i++
			var val strings.Builder
			for {
				if i >= len(line) {
					return s, fmt.Errorf("unterminated label value for %q", lname)
				}
				c := line[i]
				if c == '"' {
					i++
					break
				}
				if c == '\\' {
					if i+1 >= len(line) {
						return s, fmt.Errorf("dangling escape in label value")
					}
					switch line[i+1] {
					case '\\':
						val.WriteByte('\\')
					case '"':
						val.WriteByte('"')
					case 'n':
						val.WriteByte('\n')
					default:
						return s, fmt.Errorf("invalid escape \\%c in label value", line[i+1])
					}
					i += 2
					continue
				}
				val.WriteByte(c)
				i++
			}
			s.Labels[lname] = val.String()
			if i < len(line) && line[i] == ',' {
				i++
			} else if i >= len(line) || line[i] != '}' {
				return s, fmt.Errorf("expected ',' or '}' after label value")
			}
		}
	}
	rest := strings.TrimLeft(line[i:], " ")
	if rest == "" {
		return s, fmt.Errorf("sample without a value")
	}
	fields := strings.Fields(rest)
	if len(fields) != 1 {
		return s, fmt.Errorf("trailing tokens after value (timestamps are rejected)")
	}
	v, err := parseValue(fields[0])
	if err != nil {
		return s, err
	}
	s.Value = v
	return s, nil
}

func parseValue(tok string) (float64, error) {
	switch tok {
	case "+Inf":
		return inf(1), nil
	case "-Inf":
		return inf(-1), nil
	case "NaN":
		return nan(), nil
	}
	v, err := strconv.ParseFloat(tok, 64)
	if err != nil {
		return 0, fmt.Errorf("bad value %q", tok)
	}
	return v, nil
}

func isNameChar(c byte, first bool) bool {
	if c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c == '_' || c == ':' {
		return true
	}
	return !first && c >= '0' && c <= '9'
}

func inf(sign int) float64 {
	v := 0.0
	if sign > 0 {
		return 1 / v
	}
	return -1 / v
}

func nan() float64 { v := 0.0; return v / v }

// Value returns the value of the series with the exact sample name and
// label set (order-insensitive), and whether it exists.
func (fs Families) Value(sample string, labels map[string]string) (float64, bool) {
	f, ok := fs[familyOf(sample)]
	if !ok {
		return 0, false
	}
	for _, s := range f.Samples {
		if s.Name != sample || len(s.Labels) != len(labels) {
			continue
		}
		match := true
		for k, v := range labels {
			if s.Labels[k] != v {
				match = false
				break
			}
		}
		if match {
			return s.Value, true
		}
	}
	return 0, false
}

// Sum adds every sample whose name equals name exactly and whose
// labels include the given subset. name may be a plain family name or
// a histogram sample name (family + _bucket/_sum/_count); either way
// only samples with that exact name contribute, so summing a family
// name never mixes in its histogram sub-series. A nil subset sums all
// matching samples.
func (fs Families) Sum(name string, subset map[string]string) float64 {
	f, ok := fs[familyOf(name)]
	if !ok {
		return 0
	}
	total := 0.0
	for _, s := range f.Samples {
		if s.Name != name {
			continue
		}
		match := true
		for k, v := range subset {
			if s.Labels[k] != v {
				match = false
				break
			}
		}
		if match {
			total += s.Value
		}
	}
	return total
}
