package main

import (
	"strings"
	"testing"
)

// script drives one key's state through a hand-built history. Steps:
// "w+" a write starts, "w-" the oldest unfinished write completes,
// "r+" a read begins, "r=N" the read returns write N.
func runScript(t *testing.T, steps ...string) error {
	t.Helper()
	const key, size = 7, 64
	var (
		k       keyState
		pending []int64
		lo      int64
	)
	for _, s := range steps {
		switch {
		case s == "w+":
			pending = append(pending, k.beginWrite())
		case s == "w-":
			k.endWrite(pending[0])
			pending = pending[1:]
		case s == "r+":
			lo = k.beginRead()
		case strings.HasPrefix(s, "r="):
			var seq int64
			for _, c := range s[2:] {
				seq = seq*10 + int64(c-'0')
			}
			buf := make([]byte, size)
			encodeValue(buf, key, seq)
			if _, err := k.checkRead(key, lo, buf, size); err != nil {
				return err
			}
		default:
			t.Fatalf("bad step %q", s)
		}
	}
	return nil
}

func TestCheckAcceptsRegularHistories(t *testing.T) {
	for name, steps := range map[string][]string{
		"read after write":             {"w+", "w-", "r+", "r=1"},
		"read overlapping a write old": {"w+", "w-", "r+", "w+", "r=1"},
		"read overlapping a write new": {"w+", "w-", "r+", "w+", "r=2"},
		"write completes mid-read":     {"w+", "w-", "r+", "w+", "w-", "r=2"},
		"two writes mid-read, middle":  {"w+", "w-", "r+", "w+", "w-", "w+", "w-", "r=2"},
		"new/old inversion is regular": {"w+", "w-", "w+", "r+", "r=2", "r+", "r=1"},
	} {
		if err := runScript(t, steps...); err != nil {
			t.Errorf("%s: flagged a regular history: %v", name, err)
		}
	}
}

func TestCheckRejectsIrregularHistories(t *testing.T) {
	for name, tc := range map[string]struct {
		steps []string
		want  string
	}{
		"stale read":  {[]string{"w+", "w-", "w+", "w-", "w+", "w-", "r+", "r=1"}, "stale read"},
		"lost write":  {[]string{"w+", "w-", "r+", "r=1", "w+", "w-", "r+", "r=1"}, "stale read"},
		"future read": {[]string{"w+", "w-", "r+", "r=2"}, "future read"},
		"future read of an unstarted write during a write": {[]string{"w+", "w-", "r+", "w+", "r=3"}, "future read"},
	} {
		err := runScript(t, tc.steps...)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got %v, want a %q violation", name, err, tc.want)
		}
	}
}

func TestCheckRejectsForeignAndCorruptValues(t *testing.T) {
	var k keyState
	k.endWrite(k.beginWrite())
	buf := make([]byte, 64)
	encodeValue(buf, 3, 1)
	if _, err := k.checkRead(4, 0, buf, 64); err == nil || !strings.Contains(err.Error(), "written to key 3") {
		t.Errorf("value of another key: got %v", err)
	}
	buf[40] ^= 1
	if _, err := k.checkRead(3, 0, buf, 64); err == nil || !strings.Contains(err.Error(), "corrupt") {
		t.Errorf("flipped payload byte: got %v", err)
	}
	if _, err := k.checkRead(3, 0, buf[:20], 64); err == nil {
		t.Error("truncated value accepted")
	}
	if _, err := k.checkRead(3, 0, nil, 64); err == nil {
		t.Error("⊥ accepted after a completed write")
	}
}
