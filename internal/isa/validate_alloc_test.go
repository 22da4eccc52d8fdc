package isa_test

import (
	"testing"

	"wavescalar/internal/workload"
)

// TestValidateAllocatesNothingOnValidProgram: every simulator validates
// its program for itself, so the happy path must not cost an allocation
// per instruction.
func TestValidateAllocatesNothingOnValidProgram(t *testing.T) {
	w, err := workload.ByName("fft")
	if err != nil {
		t.Fatal(err)
	}
	prog := w.Build(workload.Tiny).Prog
	if err := prog.Validate(); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(20, func() { _ = prog.Validate() }); n > 1 {
		t.Errorf("Validate allocated %.0f objects on a valid %d-instruction program, want at most 1",
			n, len(prog.Insts))
	}
}
