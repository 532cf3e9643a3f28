// Package golden fingerprints values for golden tests: one FNV-64a
// hash over their little-endian bits, so a single uint64 constant pins
// every bit a computation produced.
package golden

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
)

// Fingerprint returns FNV-64a over the little-endian encoding of each
// part in order. A part is a fixed-size value or a slice of them, as
// encoding/binary writes it; any other part panics.
func Fingerprint(parts ...any) uint64 {
	f := fnv.New64a()
	for _, p := range parts {
		if err := binary.Write(f, binary.LittleEndian, p); err != nil {
			panic(fmt.Sprintf("golden: fingerprinting %T: %v", p, err))
		}
	}
	return f.Sum64()
}
