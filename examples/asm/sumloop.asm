; Sums 1..N in a VM loop, written in the guarded-loop shape a naive
; compiler emits (test at the top, unconditional jump at the bottom).
; The optimizer rotates the loop, and the VM's register lowering then
; runs each iteration as two register ops, an ADD and an add-and-branch
; backedge. TestOptimizeSumLoopInstructions
; (internal/verify) pins the gain, and the benchmark's plugin_compute
; workload runs the same loop.
.plugin sum 1.0
.port n required
.port out provided
.globals 2
on_message n:
	ARG
	STG 0
	PUSH 0
	STG 1
loop:
	LDG 0
	JZ done
	LDG 1
	LDG 0
	ADD
	STG 1
	LDG 0
	PUSH 1
	SUB
	STG 0
	JMP loop
done:
	LDG 1
	PWR out
	RET
