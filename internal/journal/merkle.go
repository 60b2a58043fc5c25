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
// between batches, and CRC-colliding payload rewrites. It is also what
// lets a future shared-cache node hand a peer an O(log n) membership
// proof (Proof / VerifyProof) instead of the whole batch.

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

// ProofStep is one level of a membership proof: the sibling hash and
// which side it sits on. The side travels with the hash because a
// promoted (unpaired) level contributes no step, so the verifier
// cannot reconstruct parity from the leaf index alone.
type ProofStep struct {
	Hash [32]byte
	Left bool // sibling is the left child
}

// Proof returns the sibling path proving leaves[i] under the root, at
// most one step per level (O(log n)).
func Proof(leaves [][32]byte, i int) []ProofStep {
	if i < 0 || i >= len(leaves) {
		return nil
	}
	var path []ProofStep
	level := make([][32]byte, len(leaves))
	copy(level, leaves)
	for len(level) > 1 {
		if sib := i ^ 1; sib < len(level) {
			path = append(path, ProofStep{Hash: level[sib], Left: sib < i})
		}
		next := level[: 0 : len(level)/2+1]
		for k := 0; k < len(level); k += 2 {
			if k+1 < len(level) {
				next = append(next, nodeHash(level[k], level[k+1]))
			} else {
				next = append(next, level[k])
			}
		}
		level = next
		i /= 2
	}
	return path
}

// VerifyProof checks that the payload is a leaf of the tree with the
// given root, using the sibling path from Proof.
func VerifyProof(root [32]byte, payload []byte, path []ProofStep) bool {
	h := leafHash(payload)
	for _, step := range path {
		if step.Left {
			h = nodeHash(step.Hash, h)
		} else {
			h = nodeHash(h, step.Hash)
		}
	}
	return h == root
}
