package obs

import (
	"bytes"
	"fmt"
	"io"
	"strings"
)

// WriteProm writes the registry in Prometheus text exposition format,
// families sorted by name and series by label values, so the output is
// a deterministic function of the metric values. A nil registry writes
// nothing.
func (r *Registry) WriteProm(w io.Writer) error {
	for _, f := range r.sortedFamilies() {
		if f.help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", f.name, escapeHelp(f.help)); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.kind); err != nil {
			return err
		}
		for _, s := range f.sorted() {
			if _, err := fmt.Fprintf(w, "%s%s %d\n", f.name, labelSet(f.labels, s.labelVals), s.value()); err != nil {
				return err
			}
		}
	}
	return nil
}

// labelSet renders {k="v",...}, or "" when there are no labels.
func labelSet(keys, vals []string) string {
	if len(keys) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(k)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(vals[i]))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func escapeLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, "\n", `\n`)
	return strings.ReplaceAll(s, `"`, `\"`)
}

func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// Snapshot returns the deterministic text serialization of the
// registry (the Prometheus exposition, sorted). Two runs that perform
// the same metric updates produce byte-identical snapshots; the
// simulator's same-seed determinism tests and CI diff exactly this.
func (r *Registry) Snapshot() []byte {
	var b bytes.Buffer
	// bytes.Buffer writes cannot fail.
	_ = r.WriteProm(&b)
	return b.Bytes()
}

// WriteJSON writes the registry as a single JSON object, families and
// series in the same deterministic order as WriteProm. The format is
// hand-rolled (sorted, no struct tags to drift) and stable:
//
//	{"families":[{"name":...,"type":...,"help":...,
//	  "series":[{"labels":{...},"value":N}]}]}
func (r *Registry) WriteJSON(w io.Writer) error {
	var b bytes.Buffer
	b.WriteString(`{"families":[`)
	for fi, f := range r.sortedFamilies() {
		if fi > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `{"name":%s,"type":%s,"help":%s,"series":[`,
			jsonStr(f.name), jsonStr(f.kind.String()), jsonStr(f.help))
		for si, s := range f.sorted() {
			if si > 0 {
				b.WriteByte(',')
			}
			b.WriteString(`{"labels":{`)
			for li, k := range f.labels {
				if li > 0 {
					b.WriteByte(',')
				}
				fmt.Fprintf(&b, `%s:%s`, jsonStr(k), jsonStr(s.labelVals[li]))
			}
			fmt.Fprintf(&b, `},"value":%d}`, s.value())
		}
		b.WriteString(`]}`)
	}
	b.WriteString(`]}`)
	_, err := w.Write(b.Bytes())
	return err
}

func jsonStr(s string) string {
	var b strings.Builder
	b.WriteByte('"')
	for _, c := range s {
		switch c {
		case '"':
			b.WriteString(`\"`)
		case '\\':
			b.WriteString(`\\`)
		case '\n':
			b.WriteString(`\n`)
		case '\t':
			b.WriteString(`\t`)
		case '\r':
			b.WriteString(`\r`)
		default:
			if c < 0x20 {
				fmt.Fprintf(&b, `\u%04x`, c)
			} else {
				b.WriteRune(c)
			}
		}
	}
	b.WriteByte('"')
	return b.String()
}
