package baseline

import (
	"repro/internal/core"
	"repro/internal/quorum"
	"repro/internal/transport"
	"repro/internal/types"
)

// NewFastSafeReader returns the reader of the fast-read safe storage
// that lives just above the Proposition 1 threshold: S = 2t+2b+1
// unauthenticated objects, written in one round by NewWriter. One
// object fewer and the paper proves fast reads impossible; with 2t+2b+1
// the write quorum (S−t, hence ≥ t+b+1 correct holders) and the read
// quorum (S−t replies) intersect in ≥ b+1 correct objects, so a single
// round suffices for both operations.
//
// The READ returns the highest pair reported identically by at least
// b+1 objects, which that intersection guarantees to exist when the
// READ is not concurrent with a write, and which Byzantine objects (at
// most b) cannot fabricate. Under write concurrency the support for any
// single pair can momentarily fragment; the reader then keeps
// collecting and, if a full round drains without a decision,
// re-queries: safety is never at stake, only the fast path. Deciding
// before S−t objects of this READ have reported would let t
// stale-but-correct objects fake b+1 support for an old pair.
func NewFastSafeReader(cfg quorum.Config, conn transport.Conn) *Reader {
	rule := func(r *Reports) (types.TSVal, bool) { return r.Supported(cfg.SafeThreshold()) }
	return &Reader{Client: core.NewClient(cfg, conn), decide: rule}
}
