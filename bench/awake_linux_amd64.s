#include "textflag.h"

// func pause(n int)
TEXT ·pause(SB), NOSPLIT, $0-8
	MOVQ n+0(FP), AX
loop:
	PAUSE
	SUBQ $1, AX
	JNZ  loop
	RET
