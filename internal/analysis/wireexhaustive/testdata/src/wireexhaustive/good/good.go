// Package good plumbs every message through all three tables — and
// echoes the frame header's Op field in every keyed literal — so the
// analyzer must stay silent.
package good

type Msg interface{ isMsg() }

type Ping struct{ N int }
type Pong struct{ S string }

// Wrap is the frame header: Op is the distributed trace ID every
// construction must carry forward (0 = untraced, stated explicitly);
// Inc is a plain-value stamp, which a struct copy already clones. Path
// is the case a header must not get wrong: a header field that holds a
// slice (or pointer) shares its backing store across a struct copy, so
// Clone must deep-copy it like any payload.
type Wrap struct {
	Reg  string
	Op   uint64
	Inc  uint32
	Path []byte
	Msg  Msg
}

// Fetch mirrors the round-2 READ frame with its optional repair hint:
// a message carrying a pointer payload is still one message, and the
// pointer field changes nothing about the three-table contract — Clone
// deep-copies the hint, the codec gets one tag.
type Fetch struct {
	Round byte
	Hint  *Pong
}

func (Ping) isMsg()  {}
func (Pong) isMsg()  {}
func (Wrap) isMsg()  {}
func (Fetch) isMsg() {}

const (
	tagPing byte = iota + 1
	tagPong
	tagWrap
	tagFetch
)

func Clone(m Msg) Msg {
	switch v := m.(type) {
	case Ping:
		return Ping{N: v.N}
	case Pong:
		return Pong{S: v.S}
	case Wrap:
		v.Path = append([]byte(nil), v.Path...)
		v.Msg = Clone(v.Msg)
		return v
	case Fetch:
		f := Fetch{Round: v.Round}
		if v.Hint != nil {
			h := *v.Hint
			f.Hint = &h
		}
		return f
	default:
		return m
	}
}

func Encode(m Msg) byte {
	switch m.(type) {
	case Ping:
		return tagPing
	case Pong:
		return tagPong
	case Wrap:
		return tagWrap
	case Fetch:
		return tagFetch
	}
	return 0
}

func Decode(tag byte) Msg {
	switch tag {
	case tagPing:
		return Ping{}
	case tagPong:
		return Pong{}
	case tagWrap:
		return Wrap{Reg: "", Op: 0, Msg: nil}
	case tagFetch:
		return Fetch{}
	}
	return nil
}

// Reply rebuilds the envelope around an answer; stating Op: 0 is the
// sanctioned way to construct a deliberately untraced envelope.
func Reply(req Wrap, ans Msg) Msg {
	if req.Op == 0 {
		return Wrap{Reg: req.Reg, Op: 0, Msg: ans}
	}
	return Wrap{Reg: req.Reg, Op: req.Op, Msg: ans}
}
