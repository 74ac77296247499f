package engine

import "testing"

// TestChurnWorkloadUniformUnchanged pins the uniform write stream:
// delete/insert balance and no systematic write runs.
func TestChurnWorkloadUniformUnchanged(t *testing.T) {
	ops, queries, writes := NewChurnWorkloadIn(7, 3, 16, 1.2, 0.001, 4000, 0.1, 5, 10, false)
	if queries+writes != 4000 || writes == 0 {
		t.Fatalf("bad counts: %d queries, %d writes", queries, writes)
	}
	longest := 0
	run := 0
	var inserts, deletes int
	for _, op := range ops {
		if op.Write {
			run++
			if run > longest {
				longest = run
			}
			if op.Insert {
				inserts++
			} else {
				deletes++
			}
		} else {
			run = 0
		}
	}
	if inserts == 0 || deletes == 0 {
		t.Fatalf("uniform stream lost its insert/delete mix: %d inserts, %d deletes", inserts, deletes)
	}
	// Uniform 10% writes make long runs wildly improbable.
	if longest >= 8 {
		t.Fatalf("uniform stream has a %d-long write run", longest)
	}
}
