package secure

// hasAESNI reports whether CPUID lists the AES instructions.
func hasAESNI() bool

// expandKeyAsm writes the eleven AES-128 round keys of key into rk.
//
//go:noescape
func expandKeyAsm(key *[16]byte, rk *[roundKeyBytes]byte)

// xorKeystreamAsm XORs src with the keystream of its len(src)/16 whole
// counter blocks, the first at the counter hi:lo, into dst. dst is at
// least as long as src, and is src itself or disjoint from it.
//
//go:noescape
func xorKeystreamAsm(rk *[roundKeyBytes]byte, hi, lo uint64, dst, src []byte)

func init() {
	if hasAESNI() {
		expandKey, xorKeystream = expandKeyAsm, xorKeystreamAsm
	}
}
