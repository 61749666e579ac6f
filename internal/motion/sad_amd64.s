#include "textflag.h"

// func sad16Rows(c []byte, cw int, p []byte, rw int, limit int32) (sum int32, rows int)
//
// Row r of the current block starts at c[r*cw], row r of the reference
// block at p[r*rw]. PSADBW sums |a−b| over each 8-byte half of a row
// into the low word of the matching 64-bit lane; PSHUFD brings the high
// lane down so one PADDQ folds the row. The running sum is compared
// with limit (signed, like the Go kernels) after each row, so the row
// that trips the limit is included and no later row is read.
TEXT ·sad16Rows(SB), NOSPLIT, $0-88
	MOVQ   c_base+0(FP), SI
	MOVQ   cw+24(FP), AX
	MOVQ   p_base+32(FP), DI
	MOVQ   rw+56(FP), BX
	MOVLQSX limit+64(FP), DX
	XORQ   R8, R8 // running sum
	XORQ   CX, CX // rows scanned

row:
	MOVOU  (SI), X0
	MOVOU  (DI), X1
	PSADBW X1, X0
	PSHUFD $0xEE, X0, X1
	PADDQ  X1, X0
	MOVQ   X0, R9
	ADDQ   R9, R8
	INCQ   CX
	CMPQ   R8, DX
	JGT    done
	ADDQ   AX, SI
	ADDQ   BX, DI
	CMPQ   CX, $16
	JLT    row

done:
	MOVL   R8, sum+72(FP)
	MOVQ   CX, rows+80(FP)
	RET
