package rules

import "repro/internal/httpsim"

// SelectLinear is the reference implementation: the HAProxy linear scan
// exactly as the paper models it. It is the differential oracle the
// compiled Select is fuzzed and benchmarked against.
func (e *Engine) SelectLinear(req *httpsim.Request, rnd float64, info BackendInfo) Decision {
	if info == nil {
		info = allAlive{}
	}
	d := Decision{}
	for i := range e.rules {
		r := &e.rules[i]
		d.Scanned++
		if !r.Match.Matches(req) {
			continue
		}
		if b, ok := e.applyAction(r, req, rnd, info); ok {
			d.Backend, d.Rule, d.OK = b, r, true
			return d
		}
	}
	return d
}
