package study

import "testing"

// TestClaims checks every mechanically verifiable finding of the paper
// against the reproduction (cmd/figures prints the same pass/fail list).
func TestClaims(t *testing.T) {
	for _, c := range Claims() {
		c := c
		t.Run(c.ID, func(t *testing.T) {
			got, ok, err := c.Check()
			if err != nil {
				t.Fatalf("%s: %v", c.ID, err)
			}
			t.Logf("%s\n  paper: %s\n  ours:  %s", c.ID, c.Statement, got)
			if !ok {
				t.Errorf("claim not reproduced: %s (got %s)", c.Statement, got)
			}
		})
	}
}
