package scenario

import (
	"sync"
	"testing"
)

// TestConcurrentResolve hammers the scenario table from many
// goroutines (run with -race) — the multi-tenant service resolves
// scenarios concurrently, and the table is read without a lock, so
// nothing may ever write it.
func TestConcurrentResolve(t *testing.T) {
	const goroutines = 16
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				for _, name := range Names() {
					if _, err := Get(name); err != nil {
						t.Errorf("scenario %q unresolvable: %v", name, err)
						return
					}
				}
				if _, err := Get("nonesuch"); err == nil {
					t.Error("unknown scenario resolved")
					return
				}
			}
		}()
	}
	wg.Wait()
}
