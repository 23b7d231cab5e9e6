#include "textflag.h"

// The AES-128-CTR kernel behind ctrXOR on amd64 with AES-NI: the key
// schedule (AESKEYGENASSIST) and a keystream XOR that keeps eight
// counter blocks in flight, so the AESENC latency of one block hides
// behind the seven others.

// func hasAESNI() bool
TEXT ·hasAESNI(SB), NOSPLIT, $0-1
	MOVL $1, AX
	XORL CX, CX
	CPUID
	SHRL $25, CX // CPUID.1:ECX bit 25 is AES-NI
	ANDL $1, CX
	MOVB CX, ret+0(FP)
	RET

// EXPAND derives the next AES-128 round key in X0 from the previous one
// (FIPS 197 §5.2): AESKEYGENASSIST leaves SubWord(RotWord(w3)) ^ rcon
// in dword 3 of X1, which is broadcast and XORed into the running
// prefix XOR w0, w0^w1, w0^w1^w2, w0^w1^w2^w3 of the previous key.
#define EXPAND(rcon, off) \
	AESKEYGENASSIST $rcon, X0, X1; \
	PSHUFD          $0xff, X1, X1; \
	MOVOU           X0, X2; \
	PSLLO           $4, X2; \
	PXOR            X2, X0; \
	PSLLO           $4, X2; \
	PXOR            X2, X0; \
	PSLLO           $4, X2; \
	PXOR            X2, X0; \
	PXOR            X1, X0; \
	MOVUPS          X0, off(BX)

// func expandKeyAsm(key *[16]byte, rk *[roundKeyBytes]byte)
TEXT ·expandKeyAsm(SB), NOSPLIT, $0-16
	MOVQ   key+0(FP), AX
	MOVQ   rk+8(FP), BX
	MOVUPS (AX), X0
	MOVUPS X0, 0(BX)
	EXPAND(0x01, 16)
	EXPAND(0x02, 32)
	EXPAND(0x04, 48)
	EXPAND(0x08, 64)
	EXPAND(0x10, 80)
	EXPAND(0x20, 96)
	EXPAND(0x40, 112)
	EXPAND(0x80, 128)
	EXPAND(0x1b, 144)
	EXPAND(0x36, 160)
	RET

// COUNTER loads the counter hi:lo (R8:R9, a 128-bit big-endian integer
// in memory order) into X and increments it, carrying out of the low
// half into the high one.
#define COUNTER(X) \
	MOVQ       R8, R10; \
	BSWAPQ     R10; \
	MOVQ       R10, X; \
	MOVQ       R9, R11; \
	BSWAPQ     R11; \
	MOVQ       R11, X9; \
	PUNPCKLQDQ X9, X; \
	ADDQ       $1, R9; \
	ADCQ       $0, R8

#define ROUND8(off) \
	MOVUPS off(AX), X8; \
	AESENC X8, X0; \
	AESENC X8, X1; \
	AESENC X8, X2; \
	AESENC X8, X3; \
	AESENC X8, X4; \
	AESENC X8, X5; \
	AESENC X8, X6; \
	AESENC X8, X7

#define ROUND1(off) \
	MOVUPS off(AX), X8; \
	AESENC X8, X0

// XORSTORE XORs the keystream block in X with src at off and writes
// dst at off. Each 16 bytes are read before they are written, so dst
// may be src itself.
#define XORSTORE(X, off) \
	MOVUPS off(SI), X9; \
	PXOR   X9, X; \
	MOVUPS X, off(DI)

// func xorKeystreamAsm(rk *[roundKeyBytes]byte, hi, lo uint64, dst, src []byte)
TEXT ·xorKeystreamAsm(SB), NOSPLIT, $0-72
	MOVQ rk+0(FP), AX
	MOVQ hi+8(FP), R8
	MOVQ lo+16(FP), R9
	MOVQ dst_base+24(FP), DI
	MOVQ src_base+48(FP), SI
	MOVQ src_len+56(FP), CX
	SHRQ $4, CX

eight:
	CMPQ CX, $8
	JB   singles
	COUNTER(X0)
	COUNTER(X1)
	COUNTER(X2)
	COUNTER(X3)
	COUNTER(X4)
	COUNTER(X5)
	COUNTER(X6)
	COUNTER(X7)
	MOVUPS 0(AX), X8
	PXOR   X8, X0
	PXOR   X8, X1
	PXOR   X8, X2
	PXOR   X8, X3
	PXOR   X8, X4
	PXOR   X8, X5
	PXOR   X8, X6
	PXOR   X8, X7
	ROUND8(16)
	ROUND8(32)
	ROUND8(48)
	ROUND8(64)
	ROUND8(80)
	ROUND8(96)
	ROUND8(112)
	ROUND8(128)
	ROUND8(144)
	MOVUPS     160(AX), X8
	AESENCLAST X8, X0
	AESENCLAST X8, X1
	AESENCLAST X8, X2
	AESENCLAST X8, X3
	AESENCLAST X8, X4
	AESENCLAST X8, X5
	AESENCLAST X8, X6
	AESENCLAST X8, X7
	XORSTORE(X0, 0)
	XORSTORE(X1, 16)
	XORSTORE(X2, 32)
	XORSTORE(X3, 48)
	XORSTORE(X4, 64)
	XORSTORE(X5, 80)
	XORSTORE(X6, 96)
	XORSTORE(X7, 112)
	ADDQ $128, SI
	ADDQ $128, DI
	SUBQ $8, CX
	JMP  eight

singles:
	// Fewer than eight blocks left: one at a time.
	TESTQ CX, CX
	JZ    done
	COUNTER(X0)
	MOVUPS 0(AX), X8
	PXOR   X8, X0
	ROUND1(16)
	ROUND1(32)
	ROUND1(48)
	ROUND1(64)
	ROUND1(80)
	ROUND1(96)
	ROUND1(112)
	ROUND1(128)
	ROUND1(144)
	MOVUPS     160(AX), X8
	AESENCLAST X8, X0
	XORSTORE(X0, 0)
	ADDQ $16, SI
	ADDQ $16, DI
	DECQ CX
	JMP  singles

done:
	RET
