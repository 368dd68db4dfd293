// Package membership is the per-shard reconfiguration subsystem: it
// lets a deployment replace a faulty base object with a fresh one at a
// NEW transport address while reads and writes continue, instead of
// letting a permanently dead or Byzantine object eat the fault budget t
// for the lifetime of the deployment.
//
// The paper's model (§2) fixes the object set S forever. The standard
// cure in reconfigurable storage (RAMBO-style configuration maps, cf.
// Aspnes's distributed-systems notes; epoch-based reconfiguration
// layers that keep consensus off the data path) is a CONFIGURATION
// EPOCH: a monotonically increasing version of the shard's member list,
// carried in the header of every request (wire.RegOp.Cfg), with a signed
// redirect frame (wire.ConfigUpdate) that teaches lagging clients the
// new list in one round-trip.
//
// The pieces here are deliberately mechanism-only — the coordinator
// that drives a replacement (spawn fenced, state-transfer, flip, evict)
// lives in internal/store, which owns the network and the clients:
//
//   - View: one shard's member list at one epoch — logical object slot
//     i (the identity protocol clients address and validate, 0..S−1)
//     bound to a physical transport index (the address the message
//     actually travels to). Epoch 0 is the identity binding.
//   - Auth: HMAC-SHA256 signing of views. Clients adopt a ConfigUpdate
//     only if its signature verifies under the deployment key, so a
//     Byzantine object cannot hijack clients onto a forged member list;
//     replaying an old signed update is defeated by the monotonic epoch
//     check.
//   - Gate: the object-side enforcement, wrapping a base object's
//     handler. Requests stamped with a stale epoch are answered with
//     the signed redirect instead of being served; current requests are
//     served as they are. Unstamped traffic
//     (the recovery subsystem's StateReq/StateResp catch-up protocol)
//     passes through untouched, which keeps state transfer working
//     across configurations.
//
// Safety across a flip: the coordinator RETIRES the member being
// replaced first (Gate.Retire — it answers nothing from then on, so no
// write still in flight can count it toward a quorum), then installs a
// timestamp-dominant state transfer from t+b+1 members of the OLD
// configuration into the replacement before the member list changes.
// A write completed before retirement counting the retiring member
// still has t+b holders among the donors' candidate set, which any
// t+b+1 donations intersect in an honest object — so the installed
// merge dominates every completed write, and a write that completed in
// epoch e occupies a quorum of epoch e+1 too. Replies from the evicted
// address are excluded from quorums by the client's member-list check,
// and replies from surviving members remain countable whichever epoch
// they were minted in — their register state is continuous across the
// flip — which is why replies carry no configuration stamp at all.
package membership

import (
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sync"

	"repro/internal/obs"
	"repro/internal/transport"
	"repro/internal/wire"
)

// Policy configures the membership subsystem (store.Options carries
// one; the zero value selects every default).
type Policy struct {
	// Key is the HMAC key ConfigUpdate redirects are signed with. All
	// gates and clients of a deployment must share it. Empty selects a
	// random per-deployment key — right for single-process deployments,
	// where the store distributes the key itself.
	Key []byte
}

// View is one shard's member list at one configuration epoch: logical
// slot i (the object identity protocol clients address, 0..S−1) lives
// at physical transport address Object(Members[i]). Views are values —
// mutators return copies — so a client can hold one without locking.
type View struct {
	Shard   int
	Epoch   int64
	Members []int
}

// Identity returns the epoch-0 view of a shard with s objects: slot i
// at address i, the binding every deployment starts from.
func Identity(shard, s int) View {
	m := make([]int, s)
	for i := range m {
		m[i] = i
	}
	return View{Shard: shard, Members: m}
}

// Clone deep-copies the view.
func (v View) Clone() View {
	return View{Shard: v.Shard, Epoch: v.Epoch, Members: append([]int(nil), v.Members...)}
}

// Addr returns the physical transport address of logical slot.
func (v View) Addr(slot int) transport.NodeID {
	return transport.NodeID{Kind: transport.KindObject, Index: v.Members[slot]}
}

// Slot returns the logical slot served at physical object index addr,
// or false when addr is not a member of this view (e.g. an address
// evicted by an earlier reconfiguration).
func (v View) Slot(addr int) (int, bool) {
	for i, m := range v.Members {
		if m == addr {
			return i, true
		}
	}
	return 0, false
}

// Replace returns the successor view: slot now lives at physical index
// newAddr, everything else unchanged, epoch bumped.
func (v View) Replace(slot, newAddr int) View {
	next := v.Clone()
	next.Members[slot] = newAddr
	next.Epoch++
	return next
}

// Update renders the view as the wire redirect frame, signed.
func (v View) Update(sig []byte) wire.ConfigUpdate {
	members := make([]int64, len(v.Members))
	for i, m := range v.Members {
		members[i] = int64(m)
	}
	return wire.ConfigUpdate{Shard: int64(v.Shard), Epoch: v.Epoch, Members: members, Sig: append([]byte(nil), sig...)}
}

// FromUpdate reconstructs the view a redirect frame describes. The
// caller must verify the signature (Auth.VerifyUpdate) before trusting
// it.
func FromUpdate(cu wire.ConfigUpdate) View {
	members := make([]int, len(cu.Members))
	for i, m := range cu.Members {
		members[i] = int(m)
	}
	return View{Shard: int(cu.Shard), Epoch: cu.Epoch, Members: members}
}

// String renders the view for logs: "shard 0 epoch 2 [0 5 2 3]".
func (v View) String() string {
	return fmt.Sprintf("shard %d epoch %d %v", v.Shard, v.Epoch, v.Members)
}

// Auth signs and verifies views with HMAC-SHA256 under a deployment
// key. The signed bytes are a canonical encoding of (shard, epoch,
// member list), so any mutation of a redirect frame breaks it.
type Auth struct{ key []byte }

// NewAuth returns an authenticator for key.
func NewAuth(key []byte) *Auth {
	return &Auth{key: append([]byte(nil), key...)}
}

// canonical renders the signed surface of a view.
func canonical(v View) []byte {
	buf := make([]byte, 0, 8*(len(v.Members)+2))
	buf = binary.AppendVarint(buf, int64(v.Shard))
	buf = binary.AppendVarint(buf, v.Epoch)
	buf = binary.AppendVarint(buf, int64(len(v.Members)))
	for _, m := range v.Members {
		buf = binary.AppendVarint(buf, int64(m))
	}
	return buf
}

// Sign returns the view's signature.
func (a *Auth) Sign(v View) []byte {
	mac := hmac.New(sha256.New, a.key)
	mac.Write(canonical(v))
	return mac.Sum(nil)
}

// Verify reports whether sig signs v.
func (a *Auth) Verify(v View, sig []byte) bool {
	return hmac.Equal(a.Sign(v), sig)
}

// VerifyUpdate reports whether a redirect frame is authentic, returning
// the view it carries.
func (a *Auth) VerifyUpdate(cu wire.ConfigUpdate) (View, bool) {
	v := FromUpdate(cu)
	return v, a.Verify(v, cu.Sig)
}

// SignedUpdate signs the view and renders the redirect frame.
func (a *Auth) SignedUpdate(v View) wire.ConfigUpdate {
	return v.Update(a.Sign(v))
}

// Counters aggregates one shard's reconfiguration activity; gates and
// client muxes share one instance so the store can report it whole.
// The fields are obs counters (same Add/Load surface as the atomics
// they replaced) so a telemetry-enabled store mounts the live
// instances on its registry via Describe.
type Counters struct {
	Replacements obs.Counter // completed Replace operations
	Redirects    obs.Counter // stale-epoch requests answered with a ConfigUpdate
	Adoptions    obs.Counter // client views advanced by a verified redirect
	Replays      obs.Counter // per-register in-flight ops re-broadcast after an adoption
	StaleReplies obs.Counter // replies dropped because the sender is not in the current view
	BadUpdates   obs.Counter // redirects discarded for a bad signature
}

// Describe mounts the counters on an obs scope (both sides nil-safe).
func (c *Counters) Describe(s *obs.Scope) {
	if c == nil || s == nil {
		return
	}
	s.AttachCounter("replacements", &c.Replacements)
	s.AttachCounter("redirects", &c.Redirects)
	s.AttachCounter("adoptions", &c.Adoptions)
	s.AttachCounter("replays", &c.Replays)
	s.AttachCounter("stale_replies", &c.StaleReplies)
	s.AttachCounter("bad_updates", &c.BadUpdates)
}

// Stats is a point-in-time snapshot of Counters.
type Stats struct {
	Replacements int64
	Redirects    int64
	Adoptions    int64
	Replays      int64
	StaleReplies int64
	BadUpdates   int64
}

// Snapshot reads the counters.
func (c *Counters) Snapshot() Stats {
	return Stats{
		Replacements: c.Replacements.Load(),
		Redirects:    c.Redirects.Load(),
		Adoptions:    c.Adoptions.Load(),
		Replays:      c.Replays.Load(),
		StaleReplies: c.StaleReplies.Load(),
		BadUpdates:   c.BadUpdates.Load(),
	}
}

// Add returns the fieldwise sum (aggregating across shards).
func (s Stats) Add(o Stats) Stats {
	return Stats{
		Replacements: s.Replacements + o.Replacements,
		Redirects:    s.Redirects + o.Redirects,
		Adoptions:    s.Adoptions + o.Adoptions,
		Replays:      s.Replays + o.Replays,
		StaleReplies: s.StaleReplies + o.StaleReplies,
		BadUpdates:   s.BadUpdates + o.BadUpdates,
	}
}

// String renders the counters compactly for reports.
func (s Stats) String() string {
	return fmt.Sprintf("replacements=%d redirects=%d adoptions=%d replays=%d stale_replies=%d bad_updates=%d",
		s.Replacements, s.Redirects, s.Adoptions, s.Replays, s.StaleReplies, s.BadUpdates)
}

// Gate wraps a base object's handler with configuration-epoch
// enforcement: a request stamped with a stale epoch is answered with
// the signed redirect of the current view instead of being served;
// current requests and unstamped traffic (recovery catch-up) pass
// through untouched. It
// forwards transport.Amnesiac so amnesia restarts reach the guarded
// handler through the membership layer.
type Gate struct {
	inner    transport.Handler
	counters *Counters

	mu       sync.Mutex
	epoch    int64
	redirect wire.ConfigUpdate
	retired  bool
}

var (
	_ transport.Handler  = (*Gate)(nil)
	_ transport.Amnesiac = (*Gate)(nil)
)

// NewGate wraps inner at epoch (the epoch of the view the object is
// born into; 0 at deployment start, the successor epoch for a
// replacement object served before its flip).
func NewGate(inner transport.Handler, counters *Counters, epoch int64) *Gate {
	return &Gate{inner: inner, counters: counters, epoch: epoch}
}

// Epoch returns the gate's current configuration epoch.
func (g *Gate) Epoch() int64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.epoch
}

// Advance moves the gate to a newer configuration, installing the
// signed redirect it will answer stale requests with. Regressions are
// ignored, so concurrent flips commute.
func (g *Gate) Advance(epoch int64, redirect wire.ConfigUpdate) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if epoch < g.epoch {
		return
	}
	g.epoch = epoch
	g.redirect = redirect
}

// Retire silences the gate for good: every request — stamped or bare —
// is answered with nothing, as if the object had crashed. The
// coordinator retires a member at the START of its replacement, before
// the state transfer's donors are snapshotted: from that point no write
// can count the retiring member toward its quorum, so the donor quorum
// (t+b+1 of the remaining old members) intersects every write quorum
// that can still complete — the invariant that makes the installed
// merge dominate every completed write across the flip. A write that
// completed BEFORE retirement counting the retiring member still has
// t+b of its holders among the donors' candidate set, which the donor
// quorum intersects in at least one honest object — the same
// intersection the amnesia catch-up relies on. Retirement consumes the
// member's slot from the fault budget for the duration of the
// replacement — the very budget the replacement is about to restore.
func (g *Gate) Retire() {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.retired = true
}

// Unretire reverses Retire — the coordinator's rollback when a
// replacement fails before the flip, so an aborted Replace does not
// leave the shard short a member.
func (g *Gate) Unretire() {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.retired = false
}

// Handle implements the epoch check around the inner handler.
func (g *Gate) Handle(from transport.NodeID, req wire.Msg) (wire.Msg, bool) {
	g.mu.Lock()
	retired, epoch, redirect := g.retired, g.epoch, g.redirect
	g.mu.Unlock()
	if retired {
		return nil, false
	}
	op, _ := req.(wire.RegOp)
	if stamped, ok := op.Cfg.Get(); ok && stamped < epoch {
		g.counters.Redirects.Add(1)
		if redirect.Sig == nil {
			// No signed view installed yet (cannot happen for a served
			// gate past epoch 0); stay silent rather than redirect to
			// an unverifiable list.
			return nil, false
		}
		return redirect.Clone(), true
	}
	// Current requests — and unstamped traffic: recovery catch-up, or a
	// deployment that never enabled membership on this client — are
	// served as they are.
	reply, send := g.inner.Handle(from, req)
	if !send {
		return nil, false
	}
	// A Retire can race the computation above; re-check before the
	// reply leaves, so no ack minted across retirement can count the
	// retiring member toward a quorum the donor snapshot won't cover.
	g.mu.Lock()
	retired = g.retired
	g.mu.Unlock()
	if retired {
		return nil, false
	}
	return reply, true
}

// Forget forwards an amnesia wipe to the wrapped handler when it
// supports one.
func (g *Gate) Forget() {
	if a, ok := g.inner.(transport.Amnesiac); ok {
		a.Forget()
	}
}
