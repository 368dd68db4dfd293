// Package bad plants FakeProbe, a wire message missing from every
// hand-maintained table, plus Quux, whose tag constant never reaches the
// decode switch, plus Wrap, a frame header whose reply path forgets to
// echo the Op field. This is the end-to-end guard that wireexhaustive
// itself still catches an unplumbed message.
package bad

type Msg interface{ isMsg() }

type Ping struct{ N int }
type Pong struct{ S string }
type Quux struct{ B bool }
type FakeProbe struct{ X int } // want "has no tagFakeProbe constant"

// Wrap is the frame header: every keyed literal must set Op.
type Wrap struct {
	Reg string
	Op  uint64
	Msg Msg
}

func (Ping) isMsg()      {}
func (Pong) isMsg()      {}
func (Quux) isMsg()      {}
func (FakeProbe) isMsg() {}
func (Wrap) isMsg()      {}

const (
	tagPing byte = iota + 1
	tagPong
	tagQuux // want "never used as a switch case"
	tagWrap
)

func Clone(m Msg) Msg {
	switch v := m.(type) { // want "missing cases for: FakeProbe"
	case Ping:
		return Ping{N: v.N}
	case Pong:
		return Pong{S: v.S}
	case Quux:
		return v
	case Wrap:
		return Wrap{Reg: v.Reg, Op: v.Op, Msg: Clone(v.Msg)}
	default:
		return m
	}
}

func Encode(m Msg) byte {
	switch m.(type) { // want "missing cases for: FakeProbe"
	case Ping:
		return tagPing
	case Pong:
		return tagPong
	case Quux:
		return tagQuux
	case Wrap:
		return tagWrap
	}
	return 0
}

// Reply rebuilds the envelope around an answer but forgets the trace
// ID — the silent drop the op-echo check exists to catch.
func Reply(req Wrap, ans Msg) Msg {
	return Wrap{Reg: req.Reg, Msg: ans} // want "does not set Op"
}

func Decode(tag byte) Msg {
	switch tag {
	case tagPing:
		return Ping{}
	case tagPong:
		return Pong{}
	case tagWrap:
		return Wrap{} // empty literal: a zero value, exempt from op-echo
	}
	return nil
}
