package journal

import "crypto/sha256"

// Merkle sealing. Each record payload hashes to a leaf; a batch's seal
// is the root over its leaves. Leaves and interior nodes are
// domain-separated (0x00 / 0x01 prefixes) so an interior value can
// never be replayed as a leaf, and an odd node promotes unchanged
// rather than self-pairing, avoiding the duplicate-leaf malleability
// of the self-pairing construction.
//
// The root makes batch admission all-or-nothing under adversarial
// corruption: a record CRC is a 32-bit check against random bit rot,
// but the 256-bit root also rules out reordering, splicing records
// between batches, and CRC-colliding payload rewrites.

const (
	leafPrefix = 0x00
	nodePrefix = 0x01
)

// leafHash hashes one record payload into its Merkle leaf.
func leafHash(payload []byte) [32]byte {
	h := sha256.New()
	h.Write([]byte{leafPrefix})
	h.Write(payload)
	var out [32]byte
	h.Sum(out[:0])
	return out
}

// nodeHash combines two children into their parent.
func nodeHash(l, r [32]byte) [32]byte {
	h := sha256.New()
	h.Write([]byte{nodePrefix})
	h.Write(l[:])
	h.Write(r[:])
	var out [32]byte
	h.Sum(out[:0])
	return out
}

// merkleRoot folds the leaves level by level; an unpaired node
// promotes unchanged. The root of zero leaves is the zero hash (an
// empty batch is never sealed, but the value is defined).
func merkleRoot(leaves [][32]byte) [32]byte {
	if len(leaves) == 0 {
		return [32]byte{}
	}
	level := make([][32]byte, len(leaves))
	copy(level, leaves)
	for len(level) > 1 {
		next := level[: 0 : len(level)/2+1]
		for i := 0; i < len(level); i += 2 {
			if i+1 < len(level) {
				next = append(next, nodeHash(level[i], level[i+1]))
			} else {
				next = append(next, level[i])
			}
		}
		level = next
	}
	return level[0]
}
