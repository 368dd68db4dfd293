// Package suite lists the vetstore analyzers in one place so the driver
// and the repo-wide clean-run test agree on what "the suite" is.
package suite

import (
	"repro/internal/analysis"
	"repro/internal/analysis/ctxflow"
	"repro/internal/analysis/lockdiscipline"
	"repro/internal/analysis/poolsafe"
	"repro/internal/analysis/seededdet"
)

// Analyzers is the full vetstore suite, in reporting order.
var Analyzers = []*analysis.Analyzer{
	poolsafe.Analyzer,
	lockdiscipline.Analyzer,
	seededdet.Analyzer,
	ctxflow.Analyzer,
}
