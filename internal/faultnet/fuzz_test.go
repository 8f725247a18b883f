package faultnet

import "testing"

// FuzzParseSpec throws arbitrary strings at the fault-spec parser. The
// invariants: ParseSpec never panics; a spec it accepts passes
// validate (the parser must not hand the injector a config no schedule
// can honour); and parsing is deterministic — the same spec yields the
// same Config every time.
func FuzzParseSpec(f *testing.F) {
	f.Add("")
	f.Add("latency=2ms,jitter=1ms,bw=1048576,partial=0.01,reset=0.005,hang=0.002,acceptfail=0.1,seed=42")
	f.Add("latency=5ms")
	f.Add("  reset=0.5 , hang=0.25 ")
	f.Add("partial=1.5")  // probability out of range
	f.Add("latency=-3ms") // negative duration
	f.Add("bw=banana")    // unparseable value
	f.Add("frobnicate=1") // unknown key
	f.Add("latency")      // missing =
	f.Add("=,=,=")        // empty keys and values
	f.Add("seed=9223372036854775807")
	f.Add("seed=99999999999999999999") // overflows int64

	f.Fuzz(func(t *testing.T, spec string) {
		c, err := ParseSpec(spec)
		if err != nil {
			return
		}
		if verr := c.validate(); verr != nil {
			t.Fatalf("ParseSpec(%q) accepted a config validate rejects: %v", spec, verr)
		}
		c2, err2 := ParseSpec(spec)
		if err2 != nil {
			t.Fatalf("ParseSpec(%q) succeeded once then failed: %v", spec, err2)
		}
		if c != c2 {
			t.Fatalf("ParseSpec(%q) is not deterministic: %+v vs %+v", spec, c, c2)
		}
	})
}
