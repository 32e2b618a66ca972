//go:build amd64 && !noasm

#include "textflag.h"

// AVX2/FMA GEMM microkernels. The Go driver (kernels_asm.go) keeps the
// reference i0→j0→p0 cache blocking and packs each (j0,p0) panel of Bᵀ
// into pack[p*ldp+j] with zero-padded columns; these kernels compute a
// 2-row register tile over that panel. Column traversal: a wide body
// (32 float32 / 16 float64 columns), then 1-group chunks, the last one
// store-masked. Per output lane the arithmetic is identical in every
// chunk — a p-ascending accumulate followed by one alpha-multiply and
// one add into C — so a column's value never depends on its position in
// the tile (the column-slice invariance contract).
//
// float32 uses FMA (consumers get a ULP contract, not bit-identity).
// float64 uses separate VMULPD/VADDPD so every lane reproduces the
// scalar reference's rounding sequence exactly: gemmKern64 is
// bit-identical to dgemmBlock.

// masked-store tables: &tab[lanes-rem] has rem all-ones lanes then zeros.
DATA mask32tab<>+0x00(SB)/4, $0xffffffff
DATA mask32tab<>+0x04(SB)/4, $0xffffffff
DATA mask32tab<>+0x08(SB)/4, $0xffffffff
DATA mask32tab<>+0x0c(SB)/4, $0xffffffff
DATA mask32tab<>+0x10(SB)/4, $0xffffffff
DATA mask32tab<>+0x14(SB)/4, $0xffffffff
DATA mask32tab<>+0x18(SB)/4, $0xffffffff
DATA mask32tab<>+0x1c(SB)/4, $0xffffffff
DATA mask32tab<>+0x20(SB)/4, $0x00000000
DATA mask32tab<>+0x24(SB)/4, $0x00000000
DATA mask32tab<>+0x28(SB)/4, $0x00000000
DATA mask32tab<>+0x2c(SB)/4, $0x00000000
DATA mask32tab<>+0x30(SB)/4, $0x00000000
DATA mask32tab<>+0x34(SB)/4, $0x00000000
DATA mask32tab<>+0x38(SB)/4, $0x00000000
DATA mask32tab<>+0x3c(SB)/4, $0x00000000
GLOBL mask32tab<>(SB), RODATA, $64

DATA mask64tab<>+0x00(SB)/8, $0xffffffffffffffff
DATA mask64tab<>+0x08(SB)/8, $0xffffffffffffffff
DATA mask64tab<>+0x10(SB)/8, $0xffffffffffffffff
DATA mask64tab<>+0x18(SB)/8, $0xffffffffffffffff
DATA mask64tab<>+0x20(SB)/8, $0x0000000000000000
DATA mask64tab<>+0x28(SB)/8, $0x0000000000000000
DATA mask64tab<>+0x30(SB)/8, $0x0000000000000000
DATA mask64tab<>+0x38(SB)/8, $0x0000000000000000
GLOBL mask64tab<>(SB), RODATA, $64

// func cpuid(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxIn+0(FP), AX
	MOVL ecxIn+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// func gemmKern32(a0, a1, pack, c0, c1 *float32, jn, ldp, kl, rows int, alpha float32)
//
// Register plan: SI/DI = a0/a1 base, BX = pack, R8/R9 = c0/c1,
// R10 = jn, R11 = ldp bytes, R12 = kl, R13 = rows, R14 = column j.
// Tile: 2 rows × 4 groups of 8 (Y0-Y3 row0, Y4-Y7 row1), pack loads in
// Y8-Y11, broadcasts Y12/Y13, mask Y14, alpha Y15.
TEXT ·gemmKern32(SB), NOSPLIT, $0-76
	MOVQ a0+0(FP), SI
	MOVQ a1+8(FP), DI
	MOVQ pack+16(FP), BX
	MOVQ c0+24(FP), R8
	MOVQ c1+32(FP), R9
	MOVQ jn+40(FP), R10
	MOVQ ldp+48(FP), R11
	MOVQ kl+56(FP), R12
	MOVQ rows+64(FP), R13
	VBROADCASTSS alpha+72(FP), Y15
	SHLQ $2, R11
	XORQ R14, R14

f32body:
	MOVQ R10, AX
	SUBQ R14, AX
	CMPQ AX, $32
	JLT  f32tail

	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7
	LEAQ (BX)(R14*4), CX
	MOVQ SI, DX
	MOVQ DI, R15
	MOVQ R12, AX

f32body_p:
	VBROADCASTSS (DX), Y12
	VBROADCASTSS (R15), Y13
	VMOVUPS (CX), Y8
	VMOVUPS 32(CX), Y9
	VMOVUPS 64(CX), Y10
	VMOVUPS 96(CX), Y11
	VFMADD231PS Y8, Y12, Y0
	VFMADD231PS Y9, Y12, Y1
	VFMADD231PS Y10, Y12, Y2
	VFMADD231PS Y11, Y12, Y3
	VFMADD231PS Y8, Y13, Y4
	VFMADD231PS Y9, Y13, Y5
	VFMADD231PS Y10, Y13, Y6
	VFMADD231PS Y11, Y13, Y7
	ADDQ $4, DX
	ADDQ $4, R15
	ADDQ R11, CX
	DECQ AX
	JNZ  f32body_p

	LEAQ (R8)(R14*4), CX
	VMULPS Y15, Y0, Y0
	VMULPS Y15, Y1, Y1
	VMULPS Y15, Y2, Y2
	VMULPS Y15, Y3, Y3
	VADDPS (CX), Y0, Y0
	VADDPS 32(CX), Y1, Y1
	VADDPS 64(CX), Y2, Y2
	VADDPS 96(CX), Y3, Y3
	VMOVUPS Y0, (CX)
	VMOVUPS Y1, 32(CX)
	VMOVUPS Y2, 64(CX)
	VMOVUPS Y3, 96(CX)
	CMPQ R13, $2
	JLT  f32body_next
	LEAQ (R9)(R14*4), CX
	VMULPS Y15, Y4, Y4
	VMULPS Y15, Y5, Y5
	VMULPS Y15, Y6, Y6
	VMULPS Y15, Y7, Y7
	VADDPS (CX), Y4, Y4
	VADDPS 32(CX), Y5, Y5
	VADDPS 64(CX), Y6, Y6
	VADDPS 96(CX), Y7, Y7
	VMOVUPS Y4, (CX)
	VMOVUPS Y5, 32(CX)
	VMOVUPS Y6, 64(CX)
	VMOVUPS Y7, 96(CX)

f32body_next:
	ADDQ $32, R14
	JMP  f32body

f32tail:
	MOVQ R10, AX
	SUBQ R14, AX
	TESTQ AX, AX
	JLE  f32done

	VXORPS Y0, Y0, Y0
	VXORPS Y4, Y4, Y4
	LEAQ (BX)(R14*4), CX
	MOVQ SI, DX
	MOVQ DI, R15
	MOVQ R12, AX

f32tail_p:
	VBROADCASTSS (DX), Y12
	VBROADCASTSS (R15), Y13
	VMOVUPS (CX), Y8
	VFMADD231PS Y8, Y12, Y0
	VFMADD231PS Y8, Y13, Y4
	ADDQ $4, DX
	ADDQ $4, R15
	ADDQ R11, CX
	DECQ AX
	JNZ  f32tail_p

	VMULPS Y15, Y0, Y0
	VMULPS Y15, Y4, Y4
	MOVQ R10, AX
	SUBQ R14, AX
	CMPQ AX, $8
	JLT  f32tail_mask

	LEAQ (R8)(R14*4), CX
	VADDPS (CX), Y0, Y0
	VMOVUPS Y0, (CX)
	CMPQ R13, $2
	JLT  f32tail_next
	LEAQ (R9)(R14*4), CX
	VADDPS (CX), Y4, Y4
	VMOVUPS Y4, (CX)

f32tail_next:
	ADDQ $8, R14
	JMP  f32tail

f32tail_mask:
	MOVQ $8, CX
	SUBQ AX, CX
	SHLQ $2, CX
	LEAQ mask32tab<>(SB), DX
	VMOVDQU (DX)(CX*1), Y14
	LEAQ (R8)(R14*4), CX
	VMASKMOVPS (CX), Y14, Y8
	VADDPS Y8, Y0, Y0
	VMASKMOVPS Y0, Y14, (CX)
	CMPQ R13, $2
	JLT  f32done
	LEAQ (R9)(R14*4), CX
	VMASKMOVPS (CX), Y14, Y8
	VADDPS Y8, Y4, Y4
	VMASKMOVPS Y4, Y14, (CX)

f32done:
	VZEROUPPER
	RET

// func gemmKern64(a0, a1, pack, c0, c1 *float64, jn, ldp, kl, rows int, alpha float64)
//
// Same plan at 4 lanes: 2 rows × 4 groups of 4 (16 columns per body
// step). VMULPD into the Y14 scratch then VADDPD keeps each lane's
// rounding sequence identical to the scalar reference (no FMA).
TEXT ·gemmKern64(SB), NOSPLIT, $0-80
	MOVQ a0+0(FP), SI
	MOVQ a1+8(FP), DI
	MOVQ pack+16(FP), BX
	MOVQ c0+24(FP), R8
	MOVQ c1+32(FP), R9
	MOVQ jn+40(FP), R10
	MOVQ ldp+48(FP), R11
	MOVQ kl+56(FP), R12
	MOVQ rows+64(FP), R13
	VBROADCASTSD alpha+72(FP), Y15
	SHLQ $3, R11
	XORQ R14, R14

f64body:
	MOVQ R10, AX
	SUBQ R14, AX
	CMPQ AX, $16
	JLT  f64tail

	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	LEAQ (BX)(R14*8), CX
	MOVQ SI, DX
	MOVQ DI, R15
	MOVQ R12, AX

f64body_p:
	VBROADCASTSD (DX), Y12
	VBROADCASTSD (R15), Y13
	VMOVUPD (CX), Y8
	VMOVUPD 32(CX), Y9
	VMOVUPD 64(CX), Y10
	VMOVUPD 96(CX), Y11
	VMULPD Y8, Y12, Y14
	VADDPD Y14, Y0, Y0
	VMULPD Y9, Y12, Y14
	VADDPD Y14, Y1, Y1
	VMULPD Y10, Y12, Y14
	VADDPD Y14, Y2, Y2
	VMULPD Y11, Y12, Y14
	VADDPD Y14, Y3, Y3
	VMULPD Y8, Y13, Y14
	VADDPD Y14, Y4, Y4
	VMULPD Y9, Y13, Y14
	VADDPD Y14, Y5, Y5
	VMULPD Y10, Y13, Y14
	VADDPD Y14, Y6, Y6
	VMULPD Y11, Y13, Y14
	VADDPD Y14, Y7, Y7
	ADDQ $8, DX
	ADDQ $8, R15
	ADDQ R11, CX
	DECQ AX
	JNZ  f64body_p

	LEAQ (R8)(R14*8), CX
	VMULPD Y15, Y0, Y0
	VMULPD Y15, Y1, Y1
	VMULPD Y15, Y2, Y2
	VMULPD Y15, Y3, Y3
	VADDPD (CX), Y0, Y0
	VADDPD 32(CX), Y1, Y1
	VADDPD 64(CX), Y2, Y2
	VADDPD 96(CX), Y3, Y3
	VMOVUPD Y0, (CX)
	VMOVUPD Y1, 32(CX)
	VMOVUPD Y2, 64(CX)
	VMOVUPD Y3, 96(CX)
	CMPQ R13, $2
	JLT  f64body_next
	LEAQ (R9)(R14*8), CX
	VMULPD Y15, Y4, Y4
	VMULPD Y15, Y5, Y5
	VMULPD Y15, Y6, Y6
	VMULPD Y15, Y7, Y7
	VADDPD (CX), Y4, Y4
	VADDPD 32(CX), Y5, Y5
	VADDPD 64(CX), Y6, Y6
	VADDPD 96(CX), Y7, Y7
	VMOVUPD Y4, (CX)
	VMOVUPD Y5, 32(CX)
	VMOVUPD Y6, 64(CX)
	VMOVUPD Y7, 96(CX)

f64body_next:
	ADDQ $16, R14
	JMP  f64body

f64tail:
	MOVQ R10, AX
	SUBQ R14, AX
	TESTQ AX, AX
	JLE  f64done

	VXORPD Y0, Y0, Y0
	VXORPD Y4, Y4, Y4
	LEAQ (BX)(R14*8), CX
	MOVQ SI, DX
	MOVQ DI, R15
	MOVQ R12, AX

f64tail_p:
	VBROADCASTSD (DX), Y12
	VBROADCASTSD (R15), Y13
	VMOVUPD (CX), Y8
	VMULPD Y8, Y12, Y14
	VADDPD Y14, Y0, Y0
	VMULPD Y8, Y13, Y14
	VADDPD Y14, Y4, Y4
	ADDQ $8, DX
	ADDQ $8, R15
	ADDQ R11, CX
	DECQ AX
	JNZ  f64tail_p

	VMULPD Y15, Y0, Y0
	VMULPD Y15, Y4, Y4
	MOVQ R10, AX
	SUBQ R14, AX
	CMPQ AX, $4
	JLT  f64tail_mask

	LEAQ (R8)(R14*8), CX
	VADDPD (CX), Y0, Y0
	VMOVUPD Y0, (CX)
	CMPQ R13, $2
	JLT  f64tail_next
	LEAQ (R9)(R14*8), CX
	VADDPD (CX), Y4, Y4
	VMOVUPD Y4, (CX)

f64tail_next:
	ADDQ $4, R14
	JMP  f64tail

f64tail_mask:
	MOVQ $4, CX
	SUBQ AX, CX
	SHLQ $3, CX
	LEAQ mask64tab<>(SB), DX
	VMOVDQU (DX)(CX*1), Y14
	LEAQ (R8)(R14*8), CX
	VMASKMOVPD (CX), Y14, Y8
	VADDPD Y8, Y0, Y0
	VMASKMOVPD Y0, Y14, (CX)
	CMPQ R13, $2
	JLT  f64done
	LEAQ (R9)(R14*8), CX
	VMASKMOVPD (CX), Y14, Y8
	VADDPD Y8, Y4, Y4
	VMASKMOVPD Y4, Y14, (CX)

f64done:
	VZEROUPPER
	RET

// func sqDistKern64(x, y *float64, ld, dl, n int, out *float64)
//
// out[j] = Σ_{p<dl} (x[p] − y[j·ld+p])² for j ∈ [0, n), with n a
// multiple of 8 and dl a positive multiple of 4; the Go wrapper adds
// the d mod 4 columns and the n mod 8 rows. Eight rows per step, as two
// groups of four (accumulators Y0 and Y1, one lane per row). Per group
// and 4-column block: VSUBPD then VMULPD give a 4×4 block of squares,
// one row per register; VUNPCKLPD/VUNPCKHPD and VPERM2F128 transpose it
// to one column per register; four VADDPD add the columns into the
// accumulator in ascending p. Per lane that is exactly matrix.SqDist's
// d := x−y; s += d*d rounding sequence (unfused, as Go compiles it).
//
// Register plan: SI = x, BX = the step's first row, R8 = out,
// R10 = rows left, R11 = ld bytes, R12 = dl, R13 = 3·ld bytes,
// R14 = 8·ld bytes; per column block DI = x, AX/DX = rows 0-3/4-7.
TEXT ·sqDistKern64(SB), NOSPLIT, $0-48
	MOVQ x+0(FP), SI
	MOVQ y+8(FP), BX
	MOVQ ld+16(FP), R11
	MOVQ dl+24(FP), R12
	MOVQ n+32(FP), R10
	MOVQ out+40(FP), R8
	SHLQ $3, R11
	LEAQ (R11)(R11*2), R13
	MOVQ R11, R14
	SHLQ $3, R14

sdrows:
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	MOVQ BX, AX
	LEAQ (BX)(R11*4), DX
	MOVQ SI, DI
	MOVQ R12, CX

sdcols:
	VMOVUPD (DI), Y2

	VSUBPD (AX), Y2, Y3
	VSUBPD (AX)(R11*1), Y2, Y4
	VSUBPD (AX)(R11*2), Y2, Y5
	VSUBPD (AX)(R13*1), Y2, Y6
	VMULPD Y3, Y3, Y3
	VMULPD Y4, Y4, Y4
	VMULPD Y5, Y5, Y5
	VMULPD Y6, Y6, Y6
	VUNPCKLPD Y4, Y3, Y7
	VUNPCKHPD Y4, Y3, Y8
	VUNPCKLPD Y6, Y5, Y9
	VUNPCKHPD Y6, Y5, Y10
	VPERM2F128 $0x20, Y9, Y7, Y3
	VPERM2F128 $0x20, Y10, Y8, Y4
	VPERM2F128 $0x31, Y9, Y7, Y5
	VPERM2F128 $0x31, Y10, Y8, Y6
	VADDPD Y3, Y0, Y0
	VADDPD Y4, Y0, Y0
	VADDPD Y5, Y0, Y0
	VADDPD Y6, Y0, Y0

	VSUBPD (DX), Y2, Y11
	VSUBPD (DX)(R11*1), Y2, Y12
	VSUBPD (DX)(R11*2), Y2, Y13
	VSUBPD (DX)(R13*1), Y2, Y14
	VMULPD Y11, Y11, Y11
	VMULPD Y12, Y12, Y12
	VMULPD Y13, Y13, Y13
	VMULPD Y14, Y14, Y14
	VUNPCKLPD Y12, Y11, Y7
	VUNPCKHPD Y12, Y11, Y8
	VUNPCKLPD Y14, Y13, Y9
	VUNPCKHPD Y14, Y13, Y10
	VPERM2F128 $0x20, Y9, Y7, Y11
	VPERM2F128 $0x20, Y10, Y8, Y12
	VPERM2F128 $0x31, Y9, Y7, Y13
	VPERM2F128 $0x31, Y10, Y8, Y14
	VADDPD Y11, Y1, Y1
	VADDPD Y12, Y1, Y1
	VADDPD Y13, Y1, Y1
	VADDPD Y14, Y1, Y1

	ADDQ $32, DI
	ADDQ $32, AX
	ADDQ $32, DX
	SUBQ $4, CX
	JNZ  sdcols

	VMOVUPD Y0, (R8)
	VMOVUPD Y1, 32(R8)
	ADDQ $64, R8
	ADDQ R14, BX
	SUBQ $8, R10
	JNZ  sdrows

	VZEROUPPER
	RET

// lane indices 0..7, and the per-step index increment.
DATA argminIdx<>+0x00(SB)/8, $0
DATA argminIdx<>+0x08(SB)/8, $1
DATA argminIdx<>+0x10(SB)/8, $2
DATA argminIdx<>+0x18(SB)/8, $3
DATA argminIdx<>+0x20(SB)/8, $4
DATA argminIdx<>+0x28(SB)/8, $5
DATA argminIdx<>+0x30(SB)/8, $6
DATA argminIdx<>+0x38(SB)/8, $7
DATA argminIdx<>+0x40(SB)/8, $8
GLOBL argminIdx<>(SB), RODATA, $72

// ARGMIN_MERGE folds lane set (bv, bi) into (av, ai): a lane takes b's
// value and index where b's value is smaller, or equal with a lower
// index. Clobbers Y10-Y12.
#define ARGMIN_MERGE(av, ai, bv, bi) \
	VCMPPD    $0x11, av, bv, Y10; \
	VCMPPD    $0x00, av, bv, Y11; \
	VPCMPGTQ  bi, ai, Y12;        \
	VANDPD    Y12, Y11, Y11;      \
	VORPD     Y11, Y10, Y10;      \
	VBLENDVPD Y10, bv, av, av;    \
	VBLENDVPD Y10, bi, ai, ai

// func argminKern64(acc, normsSq *float64, an, v0 float64, n int) (best float64, idx int)
//
// The scan's answer over j ∈ [0, n), n a positive multiple of 8: the
// first j whose v = (acc[j] + an) + normsSq[j] is smallest, starting
// from (v0, 0) and moving only on a strictly smaller v. Eight lanes
// (Y0/Y1 values, Y2/Y3 indices) each start from (v0, 0) and run that
// rule over the j they own: VCMPPD LT_OQ marks the lanes whose v is
// smaller, VMINPD keeps v < best ? v : best (exactly the strict rule:
// ±0 ties and NaN keep best), and VBLENDVPD takes the marked lanes'
// indices. The lanes then merge by smaller value, then lower index,
// which is the sequential scan's answer: a NaN v0 stays (NaN, 0), a
// later NaN never wins, and −0 ties +0 with the lower index winning.
//
// Register plan: SI = acc, DI = normsSq, CX = elements left, Y4/Y5 = the
// current step's indices, Y6 = 8 per lane, Y7 = an, Y8/Y9 = v.
TEXT ·argminKern64(SB), NOSPLIT, $0-56
	MOVQ acc+0(FP), SI
	MOVQ normsSq+8(FP), DI
	VBROADCASTSD an+16(FP), Y7
	VBROADCASTSD v0+24(FP), Y0
	MOVQ n+32(FP), CX
	VMOVAPD Y0, Y1
	VPXOR   Y2, Y2, Y2
	VPXOR   Y3, Y3, Y3
	VMOVDQU argminIdx<>+0x00(SB), Y4
	VMOVDQU argminIdx<>+0x20(SB), Y5
	VPBROADCASTQ argminIdx<>+0x40(SB), Y6

amloop:
	VMOVUPD (SI), Y8
	VMOVUPD 32(SI), Y9
	VADDPD  Y7, Y8, Y8
	VADDPD  Y7, Y9, Y9
	VADDPD  (DI), Y8, Y8
	VADDPD  32(DI), Y9, Y9
	VCMPPD  $0x11, Y0, Y8, Y10
	VCMPPD  $0x11, Y1, Y9, Y11
	VMINPD  Y0, Y8, Y0
	VMINPD  Y1, Y9, Y1
	VBLENDVPD Y10, Y4, Y2, Y2
	VBLENDVPD Y11, Y5, Y3, Y3
	VPADDQ  Y6, Y4, Y4
	VPADDQ  Y6, Y5, Y5
	ADDQ $64, SI
	ADDQ $64, DI
	SUBQ $8, CX
	JNZ  amloop

	ARGMIN_MERGE(Y0, Y2, Y1, Y3)
	VPERM2F128 $0x01, Y0, Y0, Y1
	VPERM2F128 $0x01, Y2, Y2, Y3
	ARGMIN_MERGE(Y0, Y2, Y1, Y3)
	VPERMILPD $0x5, Y0, Y1
	VPERMILPD $0x5, Y2, Y3
	ARGMIN_MERGE(Y0, Y2, Y1, Y3)

	VZEROUPPER
	MOVSD X0, best+40(FP)
	MOVQ  X2, AX
	MOVQ  AX, idx+48(FP)
	RET
