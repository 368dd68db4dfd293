package baseline

import (
	"repro/internal/core"
	"repro/internal/quorum"
	"repro/internal/transport"
)

// NewABDReader returns the reader of the crash-only register of Attiya,
// Bar-Noy & Dolev [3] (S = 2t+1, writers from NewWriter). A regular
// READ is one round: the highest pair among S−t replies. An atomic READ
// (atomic set) adds a second round that writes the chosen pair back to
// S−t objects before returning, yielding atomicity for multiple
// readers. cfg is not validated: ABD runs at S = 2t+1 whatever b is.
func NewABDReader(cfg quorum.Config, conn transport.Conn, atomic bool) *Reader {
	return &Reader{Client: core.NewClient(cfg, conn), decide: highest, writeBack: atomic}
}
