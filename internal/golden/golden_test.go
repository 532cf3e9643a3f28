package golden

import (
	"strings"
	"testing"
)

// TestFingerprint pins the encoding: the FNV-64a offset basis for no
// parts, the bytes of a part in little-endian order, parts hashed as
// one stream, and a panic naming an unencodable part.
func TestFingerprint(t *testing.T) {
	if got := Fingerprint(); got != 0xcbf29ce484222325 {
		t.Fatalf("empty fingerprint %#x, want the FNV-64a offset basis", got)
	}
	if Fingerprint([]float32{1}) != Fingerprint([]byte{0, 0, 0x80, 0x3f}) {
		t.Fatal("float32 1 is not hashed as its little-endian bytes")
	}
	if Fingerprint([]uint16{1, 2}, []float64{3}) != Fingerprint([]uint16{1}, []uint16{2}, []float64{3}) {
		t.Fatal("parts are not hashed as one stream")
	}
	defer func() {
		if msg, _ := recover().(string); !strings.HasPrefix(msg, "golden: fingerprinting []int: ") {
			t.Fatalf("panic %q, want one naming the []int part", msg)
		}
	}()
	Fingerprint([]int{1})
}
