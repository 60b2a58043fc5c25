// Package fixture exercises the obs name vocabulary: every span name
// at an emission site must be declared in internal/obs/names.go, or
// the telemetry registry and trace consumers silently never see it.
package fixture

import "givetake/internal/obs"

func instrumented(col obs.Collector) {
	end := obs.Begin(col, obs.SpanCheck)
	defer end()
	done := obs.Begin(col, "ladder") // want `span name "ladder" is not declared`
	done()
}

// dynamic names are checked by their constant prefix.
func dynamic(col obs.Collector, variant string) {
	end := obs.Begin(col, obs.SpanPrefixExecute+variant)
	end()
	e2 := obs.Begin(col, "phase:"+variant) // want `prefix "phase:"`
	e2()
}

// Direct Collector method calls resolve through the interface and are
// checked the same way.
func onCollector(col obs.Collector) {
	end := col.BeginSpan("bogus-span") // want `span name "bogus-span" is not declared`
	end()
	col.BeginSpan(obs.SpanSolveRead)()
}
