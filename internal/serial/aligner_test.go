package serial

import (
	"bytes"
	"testing"
	"testing/quick"
)

func TestRecordAlignerBasics(t *testing.T) {
	a := &RecordAligner{}
	// Mid-record cut carries the tail.
	out := a.Align([]byte("1 2\n3 "), false)
	if string(out) != "1 2\n" {
		t.Fatalf("first chunk = %q", out)
	}
	out = a.Align([]byte("4\n"), false)
	if string(out) != "3 4\n" {
		t.Fatalf("second chunk = %q", out)
	}
	// No newline at all: everything carried.
	out = a.Align([]byte("567"), false)
	if out != nil {
		t.Fatalf("carry-only chunk returned %q", out)
	}
	// Final flushes the carry even without a trailing newline.
	out = a.Align([]byte("8"), true)
	if string(out) != "5678" {
		t.Fatalf("final chunk = %q", out)
	}
}

// TestRecordAlignerLosslessProperty: for any input and any chunking, the
// concatenation of aligned outputs is exactly the input, and every
// non-final output ends at a record boundary.
func TestRecordAlignerLosslessProperty(t *testing.T) {
	f := func(data []byte, cuts []uint8) bool {
		a := &RecordAligner{}
		var rebuilt []byte
		pos := 0
		for _, c := range cuts {
			if pos >= len(data) {
				break
			}
			end := pos + 1 + int(c)%64
			if end > len(data) {
				end = len(data)
			}
			out := a.Align(data[pos:end], false)
			if len(out) > 0 && out[len(out)-1] != '\n' {
				return false // non-final output must end on a record boundary
			}
			rebuilt = append(rebuilt, out...)
			pos = end
		}
		rebuilt = append(rebuilt, a.Align(data[pos:], true)...)
		return bytes.Equal(rebuilt, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestRecordAlignerCarryIsPrivate pins that Align returns records in place
// but copies the carried tail: overwriting the caller's chunk afterwards,
// as a reused read buffer would be, must not reach the next call.
func TestRecordAlignerCarryIsPrivate(t *testing.T) {
	for _, first := range []string{"1 2\n34", "567"} {
		a := &RecordAligner{}
		chunk := []byte(first)
		out := a.Align(chunk, false)
		if i := bytes.LastIndexByte(chunk, '\n'); i >= 0 && &out[0] != &chunk[0] {
			t.Errorf("%q: records copied, want a prefix of the chunk", first)
		}
		want := string(a.Carry)
		for i := range chunk {
			chunk[i] = 'x'
		}
		if string(a.Carry) != want {
			t.Fatalf("%q: carry %q changed to %q after the chunk was overwritten", first, want, a.Carry)
		}
		if got := a.Align([]byte("8\n"), true); string(got) != want+"8\n" {
			t.Fatalf("%q: next call returned %q, want %q", first, got, want+"8\n")
		}
	}
}
