package baseline

import (
	"crypto/ed25519"
	"crypto/rand"
	"encoding/binary"
	"fmt"

	"repro/internal/core"
	"repro/internal/quorum"
	"repro/internal/transport"
	"repro/internal/types"
)

// AuthKeys is the writer's signing key pair together with the public key
// distributed to readers and (honest) objects. The paper's reference
// [15] assumes RSA; ed25519 keeps the identical trust structure with a
// stdlib primitive (documented substitution in DESIGN.md).
type AuthKeys struct {
	Public  ed25519.PublicKey
	private ed25519.PrivateKey
}

// GenerateKeys creates a fresh writer key pair.
func GenerateKeys() (AuthKeys, error) {
	pub, priv, err := ed25519.GenerateKey(rand.Reader)
	if err != nil {
		return AuthKeys{}, fmt.Errorf("baseline: generate keys: %w", err)
	}
	return AuthKeys{Public: pub, private: priv}, nil
}

// signPayload canonically encodes ⟨ts, v⟩ for signing.
func signPayload(ts types.TS, v types.Value) []byte {
	buf := make([]byte, 8, 8+len(v))
	binary.BigEndian.PutUint64(buf, uint64(ts))
	return append(buf, v...)
}

// Sign produces the writer's signature over ⟨ts, v⟩.
func (k AuthKeys) Sign(ts types.TS, v types.Value) []byte {
	return ed25519.Sign(k.private, signPayload(ts, v))
}

// Verify checks a claimed signature over ⟨ts, v⟩.
func (k AuthKeys) Verify(ts types.TS, v types.Value, sig []byte) bool {
	return len(sig) == ed25519.SignatureSize && ed25519.Verify(k.Public, signPayload(ts, v), sig)
}

// NewAuthWriter returns the writer of the authenticated regular
// storage [15]: sign ⟨ts, v⟩ and store it at S−t objects, one round.
// S = 2t+b+1 gives the b+1 quorum intersection that guarantees a
// correct holder of the latest completed write in every read quorum.
func NewAuthWriter(cfg quorum.Config, keys AuthKeys, conn transport.Conn) (*Writer, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	w := NewWriter(cfg, conn)
	w.keys = &keys
	return w, nil
}

// NewAuthReader returns the one-round authenticated reader: collect S−t
// replies and return the highest pair bearing a valid writer signature.
// Byzantine objects cannot forge signatures, so the worst they can do is
// replay an older signed pair, which a correct holder of the latest
// write outbids.
func NewAuthReader(cfg quorum.Config, keys AuthKeys, conn transport.Conn) (*Reader, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Reader{Client: core.NewClient(cfg, conn), decide: highest, keys: &keys}, nil
}
